"""Measurement utilities: latency/throughput statistics and the
usr/sys/soft/guest CPU breakdowns the paper's figures report."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".cpu": ["CpuBreakdown", "collect_breakdowns"],
    ".stats": ["Cdf", "SampleStats"],
})
