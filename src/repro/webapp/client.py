"""HTTP client for the Ratatouille services (stdlib ``urllib``).

Used by the integration tests, the web-app benchmark (E6) and the
web-app example to exercise the services exactly as a browser would.

The client carries its share of the resilience layer
(``docs/RESILIENCE.md``):

* **retries** — capped exponential backoff, applied only where a
  retry is safe: idempotent GETs on transient transport errors and
  5xx, and *any* method on 503 (the backend sheds with 503 +
  ``Retry-After`` precisely because shed requests did no work and are
  safe to resend — the hint is honored);
* **typed stream interruption** — a mid-stream disconnect surfaces as
  :class:`StreamInterrupted` carrying the tokens received so far,
  instead of a silent truncation the caller cannot distinguish from a
  short recipe.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional
from urllib.error import HTTPError, URLError
from urllib.request import Request as UrlRequest
from urllib.request import urlopen


class ApiError(RuntimeError):
    """Raised when the service returns an error payload.

    ``retry_after`` carries the server's ``Retry-After`` hint (seconds)
    when one was sent, e.g. on a 503 from admission control.
    """

    def __init__(self, status: int, message: str,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.retry_after = retry_after


class StreamInterrupted(RuntimeError):
    """A token stream died before its terminal event.

    ``tokens`` holds the token ids received before the interruption —
    the partial generation — so callers can salvage or resume rather
    than guess how much arrived.
    """

    def __init__(self, message: str, tokens: List[int]) -> None:
        super().__init__(f"{message} ({len(tokens)} tokens received)")
        self.tokens = list(tokens)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff: attempt ``n`` (0-based) sleeps
    ``min(backoff_seconds * backoff_multiplier ** n, max_backoff_seconds)``
    — unless the server's ``Retry-After`` asks for longer."""

    max_retries: int = 2
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    max_backoff_seconds: float = 2.0

    def delay(self, attempt: int,
              retry_after: Optional[float] = None) -> float:
        computed = min(
            self.backoff_seconds * self.backoff_multiplier ** attempt,
            self.max_backoff_seconds)
        if retry_after is not None:
            computed = max(computed, min(retry_after,
                                         self.max_backoff_seconds))
        return computed


class RatatouilleClient:
    """Thin JSON client bound to one backend base URL.

    ``retry=None`` disables retries.  ``sleep`` is injectable so tests
    can run retry schedules without real waiting.
    """

    def __init__(self, base_url: str, timeout: float = 30.0,
                 retry: Optional[RetryPolicy] = RetryPolicy(),
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry
        self._sleep = sleep

    # ------------------------------------------------------------------
    # Transport with retries
    # ------------------------------------------------------------------
    def _open(self, method: str, path: str, payload: Optional[dict]):
        url = f"{self.base_url}{path}"
        data = None
        headers = {}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = UrlRequest(url, data=data, headers=headers, method=method)
        return urlopen(request, timeout=self.timeout)

    @staticmethod
    def _api_error(exc: HTTPError) -> ApiError:
        try:
            detail = json.loads(exc.read().decode("utf-8")).get("error", "")
        except Exception:  # noqa: BLE001 - best-effort error detail
            detail = exc.reason
        retry_after: Optional[float] = None
        raw = exc.headers.get("Retry-After") if exc.headers else None
        if raw is not None:
            try:
                retry_after = float(raw)
            except ValueError:
                pass
        return ApiError(exc.code, detail, retry_after=retry_after)

    def _should_retry(self, method: str, error: Exception) -> bool:
        if isinstance(error, ApiError):
            if error.status == 503:
                return True  # shed/unavailable: explicitly safe to resend
            if error.status == 502:
                # The backend's engine died mid-request past its restart
                # budget (EngineCrashedError).  Generation is
                # deterministic, so a resend is idempotent — behind a
                # load balancer the retry returns the identical recipe
                # from a backend process that stayed up.
                return True
            return method == "GET" and error.status >= 500
        # Transport-level failure (connection refused, reset, timeout):
        # only a GET is known not to have caused side effects.
        return method == "GET" and isinstance(
            error, (URLError, socket.timeout, ConnectionError))

    def _with_resilience(self, method: str, attempt_fn: Callable[[], Any]
                         ) -> Any:
        attempts = (self.retry.max_retries if self.retry is not None else 0)
        attempt = 0
        while True:
            try:
                result = attempt_fn()
            except Exception as exc:  # noqa: BLE001 - classified below
                if (not self._should_retry(method, exc)
                        or attempt >= attempts):
                    raise
                retry_after = getattr(exc, "retry_after", None)
                self._sleep(self.retry.delay(attempt, retry_after))
                attempt += 1
                continue
            return result

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None) -> Any:
        def attempt() -> Any:
            try:
                with self._open(method, path, payload) as response:
                    body = response.read().decode("utf-8")
                    return json.loads(body) if body else None
            except HTTPError as exc:
                raise self._api_error(exc) from exc

        return self._with_resilience(method, attempt)

    # ------------------------------------------------------------------
    # Backend API
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/api/health")

    def ingredients(self, category: Optional[str] = None,
                    limit: int = 100) -> List[Dict[str, str]]:
        path = f"/api/ingredients?limit={limit}"
        if category:
            path += f"&category={category}"
        return self._request("GET", path)["ingredients"]

    def generate(self, ingredients: List[str],
                 strategy: Optional[str] = None,
                 constraints: Optional[Dict[str, Any]] = None,
                 **options) -> Dict[str, Any]:
        """Generate a recipe; see ``docs/DECODING.md`` for the knobs.

        ``strategy`` selects the decode loop (``greedy`` / ``sample`` /
        ``mcts`` — the last is grammar-constrained tree search; the
        server answers ``beam`` with HTTP 400).  ``constraints`` is a
        dict of hard constraints (``include_ingredients``,
        ``exclude_ingredients``, ``diet``, ``max_calories``); the server
        validates it and answers an unsatisfiable request with HTTP 400
        carrying a named error code (``unknown_diet: ...``,
        ``conflicting_constraints: ...``) raised here as
        :class:`ApiError`.
        """
        payload = {"ingredients": ingredients, **options}
        if strategy is not None:
            payload["strategy"] = strategy
        if constraints is not None:
            payload["constraints"] = dict(constraints)
        return self._request("POST", "/api/generate", payload)

    def generate_stream(self, ingredients: List[str],
                        strategy: Optional[str] = None,
                        constraints: Optional[Dict[str, Any]] = None,
                        **options) -> Iterator[Dict[str, Any]]:
        """Stream a generation as it decodes (server-sent events).

        Yields ``{"token": id, "text": piece}`` per generated token,
        then a final ``{"done": true, "recipe": {...}}`` event (or a
        terminal ``{"error": ...}`` event).  Retries apply only to
        *opening* the stream; once data has flowed, a disconnect
        before a terminal event raises :class:`StreamInterrupted` with
        the tokens received so far.

        ``strategy``/``constraints`` as in :meth:`generate`; with
        ``strategy="mcts"`` the token events arrive only after the
        search completes (a tree has no stream until it picks a
        winner).
        """
        payload = {"ingredients": ingredients, **options}
        if strategy is not None:
            payload["strategy"] = strategy
        if constraints is not None:
            payload["constraints"] = dict(constraints)

        def attempt():
            try:
                return self._open("POST", "/api/generate_stream", payload)
            except HTTPError as exc:
                raise self._api_error(exc) from exc

        response = self._with_resilience("POST", attempt)
        tokens: List[int] = []
        terminal = False
        try:
            with response:
                for line in response:
                    line = line.decode("utf-8").strip()
                    if not line.startswith("data: "):
                        continue
                    event = json.loads(line[len("data: "):])
                    if "token" in event:
                        tokens.append(int(event["token"]))
                    if "done" in event or "error" in event:
                        terminal = True
                    yield event
        except (URLError, ConnectionError, socket.timeout, OSError) as exc:
            raise StreamInterrupted(
                f"stream dropped mid-generation: {exc}", tokens) from exc
        if not terminal:
            # EOF without done/error: the server went away mid-stream.
            raise StreamInterrupted(
                "stream ended without a terminal event", tokens)

    def search(self, query: Optional[str] = None,
               ingredients: Optional[List[str]] = None, k: int = 5,
               include_text: bool = False) -> Dict[str, Any]:
        """Semantic corpus search (``POST /api/search``).

        Pass a free-text ``query`` or an ``ingredients`` list (exactly
        one).  Returns the full response payload — ``hits``, ``k`` and
        the corpus ``documents`` count.
        """
        payload: Dict[str, Any] = {"k": k, "include_text": include_text}
        if query is not None:
            payload["query"] = query
        if ingredients is not None:
            payload["ingredients"] = ingredients
        return self._request("POST", "/api/search", payload)

    def retrieval_stats(self) -> Dict[str, Any]:
        return self._request("GET", "/api/retrieval")

    def engine_stats(self) -> Dict[str, Any]:
        return self._request("GET", "/api/engine")

    def resilience_stats(self) -> Dict[str, Any]:
        return self._request("GET", "/api/resilience")

    def suggest(self, ingredients: List[str], limit: int = 5) -> List[Dict]:
        payload = {"ingredients": ingredients, "limit": limit}
        return self._request("POST", "/api/suggest", payload)["suggestions"]
