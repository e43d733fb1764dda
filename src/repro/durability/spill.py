"""Prefix-cache spill: versioned on-disk snapshots with mmap'd reload.

A restarted process starts with an empty prefix cache, and that cold
start is the main source of lost work the ROADMAP calls out.  (An
engine restarting in place after a crash purges its cache and stays
cold on purpose: the crash may have been a poisoned entry.)  :class:`CacheSpill`
persists the token-trie's entries and reloads them memory-mapped, the
same discipline the retrieval index uses (``docs/RETRIEVAL.md``).

On-disk layout — versioned like an LSM manifest so readers never see a
half-written snapshot::

    <spill-dir>/
        CURRENT            # name of the live version, atomically swapped
        v000007/
            meta.json      # layout version, model fingerprint, manifest
            entries.pkl    # pickled entry skeletons (ndarrays externed)
            tensors.bin    # all ndarray payloads, 64-byte aligned

``save`` writes a complete new ``v...`` directory, fsyncs it, then
atomically rewrites ``CURRENT`` — a crash mid-save leaves the previous
version live.  ``load_into`` maps ``tensors.bin`` read-only and hands
the cache zero-copy array views.

Why read-only views are safe to serve from: cache values are
``compact_state`` snapshots whose KV caches carry ``frozen=True``, and
a frozen :class:`~repro.nn.attention.KVCache` *reallocates on first
append* — whoever resumes from the snapshot copies first.  A reloaded
mmap'd snapshot therefore behaves exactly like the frozen in-memory
snapshot it was spilled from, bit for bit.

Snapshots are only valid for the weights that produced them, so
``meta.json`` records a :func:`model_fingerprint` — a digest of the
checkpoint's parameters; a mismatch (a different checkpoint) turns the
load into a clean cold start instead of serving stale KV state.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import shutil
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from ..resilience.faults import fault_check
from .atomic import atomic_write_text, fsync_dir

LAYOUT_VERSION = 1

#: Byte alignment for tensor payloads inside ``tensors.bin`` — keeps
#: every mapped view alignment-safe for any dtype numpy will hand us.
_ALIGN = 64

#: Modules the unpickler will resolve classes from.  Spill files are
#: self-produced, but a corrupted or adversarial file should fail
#: closed (cold start), not import arbitrary code.  Matching is exact
#: module or dotted submodule — a bare prefix would let ``numpy_evil``
#: ride in on ``numpy``.  ``builtins`` is deliberately absent: an
#: allowlisted ``builtins`` would hand the file ``eval``/``exec``/
#: ``getattr`` via a GLOBAL+REDUCE pair; the few safe builtins are
#: named individually below (containers pickle via opcodes, not
#: GLOBAL, so the set stays tiny).
_SAFE_MODULES = ("repro", "numpy", "collections")
_SAFE_BUILTINS = frozenset({
    "complex", "frozenset", "set", "bytearray", "range", "slice",
})


def model_fingerprint(model) -> str:
    """Cheap, deterministic identity of a model's architecture + weights.

    CRC-32 over the class name, the config dict (when the model exposes
    one), and every parameter's shape/dtype plus a 16 Ki-element sample
    of its data.  Not cryptographic — it exists to stop a warm reload
    against the *wrong checkpoint*, not an adversary.
    """
    digest = zlib.crc32(type(model).__name__.encode("utf-8"))
    config = getattr(model, "config_dict", None)
    if callable(config):
        try:
            blob = json.dumps(config(), sort_keys=True, default=str)
            digest = zlib.crc32(blob.encode("utf-8"), digest)
        except Exception:  # noqa: BLE001 - config is advisory
            pass
    for param in model.parameters():
        data = np.ascontiguousarray(param.data)
        digest = zlib.crc32(
            f"{data.shape}{data.dtype}".encode("ascii"), digest)
        digest = zlib.crc32(data.reshape(-1)[:16384].tobytes(), digest)
    return f"{digest & 0xFFFFFFFF:08x}"


class _TensorExternalizingPickler(pickle.Pickler):
    """Pickles entry skeletons; ndarray leaves go to ``tensors.bin``.

    Arrays are deduplicated by object identity so aliased arrays inside
    one snapshot stay aliased after reload (they become the same mmap
    view) and the blob stores each payload once.
    """

    def __init__(self, file, blob: io.BufferedWriter) -> None:
        super().__init__(file, protocol=4)
        self._blob = blob
        self._offset = 0
        self._seen: Dict[int, int] = {}
        self.manifest: List[dict] = []

    def persistent_id(self, obj):  # noqa: D102 - pickle API
        if not isinstance(obj, np.ndarray):
            return None
        index = self._seen.get(id(obj))
        if index is not None:
            return index
        data = np.ascontiguousarray(obj)
        pad = (-self._offset) % _ALIGN
        if pad:
            self._blob.write(b"\0" * pad)
            self._offset += pad
        offset = self._offset
        payload = data.tobytes()
        self._blob.write(payload)
        self._offset += len(payload)
        index = len(self.manifest)
        self.manifest.append({
            "offset": offset,
            "nbytes": len(payload),
            "shape": list(data.shape),
            "dtype": str(data.dtype),
        })
        self._seen[id(obj)] = index
        return index


class _TensorResolvingUnpickler(pickle.Unpickler):
    """Resolves externalized ndarrays to read-only views of the blob."""

    def __init__(self, file, arrays: List[np.ndarray]) -> None:
        super().__init__(file)
        self._arrays = arrays

    def persistent_load(self, pid):  # noqa: D102 - pickle API
        return self._arrays[int(pid)]

    def find_class(self, module: str, name: str):  # noqa: D102
        if module == "builtins":
            allowed = name in _SAFE_BUILTINS
        else:
            root = module.split(".", 1)[0]
            allowed = root in _SAFE_MODULES
        if not allowed:
            raise pickle.UnpicklingError(
                f"refusing to unpickle {module}.{name} from a spill file")
        return super().find_class(module, name)


class SpillError(RuntimeError):
    """A snapshot could not be written or read."""


class CacheSpill:
    """Spill-to-disk persistence for one :class:`PrefixCache`.

    Parameters
    ----------
    directory:
        Snapshot home (created on first save).
    model:
        The model whose states the cache holds; used for the
        fingerprint gate.  ``None`` disables the gate (unit tests over
        synthetic entries).
    mmap:
        Map ``tensors.bin`` read-only on load (the default).  ``False``
        reads it into memory — for callers that will delete the files.
    keep_versions:
        Old version directories retained after a successful save (the
        live one excluded).  0 deletes eagerly; 1 keeps one fallback.
    """

    def __init__(self, directory, model=None, mmap: bool = True,
                 keep_versions: int = 0) -> None:
        if keep_versions < 0:
            raise ValueError("keep_versions must be >= 0")
        self.directory = Path(directory)
        self.model = model
        self.mmap = mmap
        self.keep_versions = keep_versions
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = (model_fingerprint(self.model)
                                 if self.model is not None else "none")
        return self._fingerprint

    def exists(self) -> bool:
        current = self.directory / "CURRENT"
        if not current.exists():
            return False
        version = self.directory / current.read_text("utf-8").strip()
        return (version / "meta.json").exists()

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------
    def save(self, cache) -> Dict[str, Any]:
        """Snapshot every cache entry (LRU order preserved) to disk.

        Returns summary stats.  Raises :class:`SpillError` on failure —
        callers treat a failed spill as degradation (the next restart
        is cold), never as a serving failure.
        """
        try:
            fault_check("spill.save")
            return self._save(cache)
        except SpillError:
            raise
        except Exception as exc:  # noqa: BLE001 - normalized for callers
            raise SpillError(f"cache spill failed: {exc}") from exc

    def _save(self, cache) -> Dict[str, Any]:
        entries = cache.entries_snapshot()
        self.directory.mkdir(parents=True, exist_ok=True)
        seq = self._current_seq() + 1
        version_name = f"v{seq:06d}"
        version_dir = self.directory / version_name
        version_dir.mkdir(parents=True, exist_ok=True)
        skeleton_buffer = io.BytesIO()
        with open(version_dir / "tensors.bin", "wb") as blob:
            pickler = _TensorExternalizingPickler(skeleton_buffer, blob)
            pickler.dump([
                {"key": [int(t) for t in key], "nbytes": int(nbytes),
                 "value": value}
                for key, value, nbytes in entries
            ])
            blob.flush()
            os.fsync(blob.fileno())
        with open(version_dir / "entries.pkl", "wb") as handle:
            handle.write(skeleton_buffer.getvalue())
            handle.flush()
            os.fsync(handle.fileno())
        meta = {
            "version": LAYOUT_VERSION,
            "fingerprint": self.fingerprint(),
            "entries": len(entries),
            "bytes": sum(nbytes for _, _, nbytes in entries),
            "arrays": pickler.manifest,
        }
        with open(version_dir / "meta.json", "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
            handle.flush()
            os.fsync(handle.fileno())
        fsync_dir(version_dir)
        # The commit point: until CURRENT names the new version, a
        # crash leaves the previous snapshot live and whole.
        atomic_write_text(self.directory / "CURRENT", version_name + "\n")
        self._prune(keep=version_name)
        return {"entries": len(entries), "bytes": meta["bytes"],
                "version": version_name}

    def _current_seq(self) -> int:
        best = 0
        for path in self.directory.glob("v*"):
            try:
                best = max(best, int(path.name[1:]))
            except ValueError:
                continue
        return best

    def _prune(self, keep: str) -> None:
        """Delete stale version dirs (best effort; open mmaps survive
        the unlink on POSIX — the mapping holds the inode alive)."""
        versions = sorted(path for path in self.directory.glob("v*")
                          if path.is_dir() and path.name != keep)
        for path in versions[:max(0, len(versions) - self.keep_versions)]:
            shutil.rmtree(path, ignore_errors=True)

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def load_into(self, cache) -> int:
        """Reinsert the spilled entries into ``cache``; returns how many.

        Missing/incomplete snapshots and fingerprint mismatches return
        0 (cold start); a structurally corrupt snapshot raises
        :class:`SpillError` so callers can log-and-continue.
        Insertion order is oldest-first, reproducing the spilled LRU
        recency in the rebuilt cache.
        """
        current = self.directory / "CURRENT"
        if not current.exists():
            return 0
        version_dir = self.directory / current.read_text("utf-8").strip()
        meta_path = version_dir / "meta.json"
        if not meta_path.exists():
            return 0
        try:
            meta = json.loads(meta_path.read_text("utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise SpillError(f"unreadable spill meta: {exc}") from exc
        if meta.get("version") != LAYOUT_VERSION:
            return 0
        if meta.get("fingerprint") != self.fingerprint():
            return 0  # different weights: stale KV state, start cold
        if meta.get("entries", 0) == 0:
            return 0
        try:
            arrays = self._map_arrays(version_dir, meta["arrays"])
            with open(version_dir / "entries.pkl", "rb") as handle:
                entries = _TensorResolvingUnpickler(handle, arrays).load()
        except SpillError:
            raise
        except Exception as exc:  # noqa: BLE001 - corrupt snapshot
            raise SpillError(f"corrupt spill snapshot: {exc}") from exc
        loaded = 0
        for entry in entries:
            if cache.insert(entry["key"], entry["value"], entry["nbytes"]):
                loaded += 1
        return loaded

    def _map_arrays(self, version_dir: Path,
                    manifest: List[dict]) -> List[np.ndarray]:
        blob_path = version_dir / "tensors.bin"
        if not manifest:
            return []
        if self.mmap:
            blob = np.memmap(blob_path, dtype=np.uint8, mode="r")
        else:
            blob = np.frombuffer(blob_path.read_bytes(), dtype=np.uint8)
        arrays: List[np.ndarray] = []
        for spec in manifest:
            offset, nbytes = int(spec["offset"]), int(spec["nbytes"])
            if offset + nbytes > blob.size:
                raise SpillError("tensor manifest overruns tensors.bin")
            view = blob[offset:offset + nbytes].view(
                np.dtype(spec["dtype"])).reshape(spec["shape"])
            arrays.append(view)
        return arrays
