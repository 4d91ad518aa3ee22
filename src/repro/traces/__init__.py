"""Workload traces and cloud catalogs for the Hostlo cost simulation.

* :mod:`repro.traces.aws` — the AWS EC2 on-demand m5 catalog of table 2,
  reproduced verbatim (absolute sizes, prices, and the resource values
  relative to the largest model that the paper uses to match Google's
  normalised units).
* :mod:`repro.traces.google` — a seeded synthetic generator shaped like
  the Google cluster traces the paper replays: per-user collections of
  pods whose container resource requests are heavy-tailed fractions of
  the largest machine.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".aws": ["M5_CATALOG", "VmModel", "cheapest_fitting"],
    ".google": [
        "BoundedWindow", "TraceConfig", "TraceContainer", "TracePod",
        "TraceUser", "generate_trace", "iter_pods", "iter_users",
        "stream_statistics",
    ],
})
