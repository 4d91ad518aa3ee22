"""Host wall time per ``repro`` package for one run (``--profile``).

The run executes under :mod:`cProfile`; each function's self time goes
to the package that defines it (``sim``, ``net``, ``netstack``, ...).
A C builtin's self time (``heappush``, ``dict.get``) goes to the
packages that call it, split as cProfile measured it per caller, so a
layer's row includes the builtins it leans on.  Anything else (the
standard library, the harness's own imports) is ``other``.
"""

from __future__ import annotations

import cProfile
import pathlib
import pstats
import time
import typing as t

import repro

_ROOT = pathlib.Path(repro.__file__).resolve().parent


def package_of(filename: str) -> str:
    """``sim`` for ``.../repro/sim/engine.py``; ``other`` outside repro."""
    try:
        parts = pathlib.Path(filename).resolve().relative_to(_ROOT).parts
    except ValueError:
        return "other"
    if len(parts) == 1:
        # A top-level module such as repro/errors.py.
        return "repro" if parts[0] == "__init__.py" else parts[0][:-3]
    return parts[0]


def profile_call(fn: t.Callable[[], t.Any]) -> tuple[t.Any, float,
                                                      dict[str, float]]:
    """Run *fn* under cProfile: ``(result, wall_s, self_s per package)``."""
    profiler = cProfile.Profile()
    started = time.perf_counter()
    result = profiler.runcall(fn)
    wall_s = time.perf_counter() - started
    return result, wall_s, package_seconds(pstats.Stats(profiler).stats)


def package_seconds(stats: dict) -> dict[str, float]:
    """Self seconds per package from :attr:`pstats.Stats.stats`."""
    seconds: dict[str, float] = {}
    packages: dict[str, str] = {}

    def package(filename: str) -> str:
        name = packages.get(filename)
        if name is None:
            name = packages[filename] = package_of(filename)
        return name

    for (filename, _, _), (_, _, self_s, _, callers) in stats.items():
        if filename == "~" and callers:
            # A builtin: bill each caller's package its measured share.
            for (caller_file, _, _), caller in callers.items():
                name = package(caller_file)
                seconds[name] = seconds.get(name, 0.0) + caller[2]
            continue
        name = "other" if filename == "~" else package(filename)
        seconds[name] = seconds.get(name, 0.0) + self_s
    return seconds


def render(experiment: str, wall_s: float, seconds: dict[str, float]) -> str:
    """A table of packages by self time, largest first."""
    total = sum(seconds.values()) or 1.0
    lines = [f"[profile: {experiment}, {wall_s:.2f}s wall under cProfile, "
             f"self time per repro package]",
             f"{'package':<12}{'self_s':>9}{'share':>8}"]
    for name, value in sorted(seconds.items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:<12}{value:>9.3f}{value / total:>8.1%}")
    return "\n".join(lines)
