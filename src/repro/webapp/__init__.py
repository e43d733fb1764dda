"""Web application: micro framework, backend + frontend services.

Reproduces Sec. VI: a decoupled two-service architecture — a JSON
generation backend (Flask in the paper, :mod:`.framework` here) and a
static ingredient-picker frontend (ReactJS in the paper) — plus the
dockerized-deployment config emitter (:mod:`.deploy`).
"""

from .._exports import export_lazily

__all__ = [
    "ApiError", "App", "CircuitBreaker", "CircuitOpenError",
    "DeploymentConfig", "RatatouilleClient", "Request",
    "Response", "RetryPolicy", "SHUTDOWN_ERROR", "Server", "ServiceSpec",
    "StreamInterrupted", "create_backend", "create_frontend",
    "AccessRecord", "Job", "JobQueue", "JobStatus", "MetricsMiddleware",
    "QueueFullError", "RateLimiter", "RequestLog",
    "render_compose", "render_dockerfile", "render_page", "scale_out",
    "write_deployment",
]

__getattr__, __dir__ = export_lazily(__name__, {
    "backend": ("create_backend",),
    "client": ("ApiError", "CircuitBreaker", "CircuitOpenError",
               "RatatouilleClient", "RetryPolicy", "StreamInterrupted"),
    "deploy": ("DeploymentConfig", "ServiceSpec", "render_compose",
               "render_dockerfile", "scale_out", "write_deployment"),
    "framework": ("App", "Request", "Response", "Server"),
    "jobs": ("SHUTDOWN_ERROR", "Job", "JobQueue", "JobStatus",
             "QueueFullError"),
    "middleware": ("AccessRecord", "MetricsMiddleware", "RateLimiter",
                   "RequestLog"),
    "frontend": ("create_frontend", "render_page"),
})
