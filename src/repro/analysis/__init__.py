"""Closed-form performance analysis, cross-validated against the DES.

The discrete-event engine *simulates* contention; this package
*predicts* it: per-CPU-domain busy time per message gives each domain a
service rate, the slowest domain bounds throughput, and the pipeline
latency bounds what a fixed window can keep in flight.  Validation
tests assert the simulator lands near the prediction for every
deployment mode — a strong internal-consistency check, and a fast way
to sweep parameters without running events.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".model": [
        "StreamPrediction", "predict_rr_latency", "predict_stream_throughput",
    ],
})
