"""Trace exporters: JSON-Lines, Chrome ``trace_event``, text summary.

Every file exporter reads *plain span records*: the dicts
:func:`make_record` builds.  :func:`span_record` / :func:`iter_records`
make them from a tracer; they are also what a campaign worker ships
back over a queue, what a ``.spans.jsonl`` file holds, and the spans of
the service's distributed trace.  A caller with a live tracer converts once
(``records = list(iter_records(tracer))``) and hands the same list to
each writer.

* :func:`write_spans_jsonl` — one JSON object per span/event, the
  machine-readable archive format.
* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` JSON object format; the file opens directly in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  Each
  simulation run becomes a "process"; each CPU domain (or category,
  for spans without a domain attribute) becomes a "thread" of it, so
  concurrent transfers render as parallel tracks.
* :func:`distributed_chrome_trace` — the service's merged distributed
  trace (``GET /jobs/<id>/trace``) as trace_event JSON: one Perfetto
  "process" row per participant (``http``, ``service``, each shard,
  each worker pid), the wall-clock phase spans on one track and the
  worker's sim-time spans on a sibling track, offset to nest inside
  the worker span that produced them.
* :func:`summary` — a plain-text top-N table by total simulated time,
  the quick where-did-the-cycles-go answer.

Both Chrome exports go through one event builder, which names each
process once and each ``(process, track)`` thread once.  Timestamps are
seconds; the Chrome export scales them to the format's microseconds.
"""

from __future__ import annotations

import json
import pathlib
import typing as t

from repro.obs.metrics import Counter, MetricsRegistry, _label_text
from repro.obs.trace import Span, TracerLike

#: Simulated seconds → trace_event microseconds.
_US = 1e6


def make_record(sid: t.Any, cat: str, name: str, ts: float, dur: float,
                *, run: int = 0, parent: t.Any = None, kind: str = "span",
                wall_s: float | None = None,
                attrs: t.Mapping[str, t.Any] | None = None,
                trace_id: str | None = None,
                worker: str = "service") -> dict[str, t.Any]:
    """The one span record: a ``.spans.jsonl`` line, and (with a
    *trace_id* and the *worker* it ran on) a distributed-trace span.

    *kind* is ``"span"`` or ``"event"`` (an instant).
    """
    record: dict[str, t.Any] = {"kind": kind, "sid": sid, "cat": cat,
                                "name": name, "ts": ts, "dur": dur,
                                "run": run}
    if parent is not None:
        record["parent"] = parent
    if wall_s is not None and wall_s >= 0:
        record["wall_s"] = wall_s
    if attrs:
        record["attrs"] = attrs
    if trace_id is not None:
        record["trace_id"] = trace_id
        record["worker"] = worker
    return record


def span_record(span: Span, kind: str = "span") -> dict[str, t.Any]:
    """One span/event as a JSON-ready dict."""
    return make_record(span.sid, span.category, span.name, span.start,
                       span.duration, run=span.run, parent=span.parent,
                       kind=kind, wall_s=span.wall_s, attrs=span.attrs)


def iter_records(tracer: TracerLike) -> t.Iterator[dict[str, t.Any]]:
    """All spans and events, ordered by (run, start time, id)."""
    merged = [(s, "span") for s in tracer.spans]
    merged.extend((e, "event") for e in tracer.events)
    merged.sort(key=lambda pair: (pair[0].run, pair[0].start, pair[0].sid))
    for span, kind in merged:
        yield span_record(span, kind)


def write_spans_jsonl(records: t.Iterable[t.Mapping[str, t.Any]],
                      path: str | pathlib.Path) -> pathlib.Path:
    """Write span records as JSON-Lines; returns the path."""
    path = pathlib.Path(path)
    with path.open("w") as fh:
        for record in records:
            fh.write(json.dumps(record, default=str))
            fh.write("\n")
    return path


#: One X/i event for :func:`_trace_events`: ``(pid, process name,
#: track, name, cat, ts, dur, args)``, times in seconds and ``dur``
#: ``None`` for an instant.
_Row = tuple[int, str, str, str, str, float, t.Optional[float],
             dict[str, t.Any]]


def _trace_events(rows: t.Iterable[_Row], instant_scope: str,
                  sort_processes: bool = False) -> dict[str, t.Any]:
    """The one Chrome ``trace_event`` builder.

    Emits a ``process_name`` (and, with *sort_processes*, a
    ``process_sort_index``) the first time a pid appears and a
    ``thread_name`` the first time a ``(pid, track)`` pair does; thread
    ids count from 1 within each pid.
    """
    events: list[dict[str, t.Any]] = []
    tids: dict[tuple[int, str], int] = {}
    threads: dict[int, int] = {}
    for pid, process, track, name, cat, ts, dur, args in rows:
        if pid not in threads:
            threads[pid] = 0
            events.append({
                "ph": "M", "name": "process_name", "pid": pid,
                "args": {"name": process},
            })
            if sort_processes:
                events.append({
                    "ph": "M", "name": "process_sort_index", "pid": pid,
                    "args": {"sort_index": pid},
                })
        tid = tids.get((pid, track))
        if tid is None:
            tid = tids[(pid, track)] = threads[pid] = threads[pid] + 1
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": track},
            })
        event = {"name": name, "cat": cat, "ts": ts * _US, "pid": pid,
                 "tid": tid, "args": args}
        if dur is None:
            event.update(ph="i", s=instant_scope)
        else:
            event.update(ph="X", dur=dur * _US)
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _arg(value: t.Any) -> t.Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def chrome_trace(
    records: t.Iterable[t.Mapping[str, t.Any]],
    run_names: t.Mapping[int, str] | None = None,
) -> dict[str, t.Any]:
    """Span records as a Chrome ``trace_event`` object.

    Working on plain records instead of a live :class:`Tracer` is what
    makes traces *mergeable*: the campaign runner re-numbers each
    worker's ``run`` ids into one namespace, concatenates the records,
    and exports the union as a single file with one Perfetto "process"
    per run.

    ``run_names`` optionally labels runs (``{run: "fig04@quick/r1"}``);
    unlisted runs fall back to ``sim-run-<n>``.
    """
    names = run_names or {}

    def rows() -> t.Iterator[_Row]:
        for record in records:
            run = int(record.get("run", 0))
            attrs = record.get("attrs") or {}
            domain = attrs.get("domain")
            yield (
                run, names.get(run, f"sim-run-{run}"),
                str(domain) if domain is not None else record["cat"],
                record["name"], record["cat"], float(record["ts"]),
                (None if record.get("kind") == "event"
                 else float(record.get("dur", 0.0))),
                {k: _arg(v) for k, v in attrs.items()},
            )

    return _trace_events(rows(), instant_scope="t")


def write_chrome_trace(
    records: t.Iterable[t.Mapping[str, t.Any]],
    path: str | pathlib.Path,
    run_names: t.Mapping[int, str] | None = None,
) -> pathlib.Path:
    """Write :func:`chrome_trace` output; returns the path."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(chrome_trace(records, run_names)))
    return path


def distributed_chrome_trace(
    trace_doc: t.Mapping[str, t.Any],
) -> dict[str, t.Any]:
    """A service distributed trace as a Chrome ``trace_event`` object.

    *trace_doc* is what ``TraceService.trace(job_id)`` (and therefore
    ``GET /jobs/<id>/trace``) returns: span records (:func:`make_record`)
    whose ``ts``/``dur`` are wall-clock seconds for ``cat="service"``
    spans and sim-time seconds for every other category.

    Layout: one "process" per distinct ``worker`` (``http``/``service``
    wall phases, ``shard-N`` queue/gate spans, ``pid-NNNN`` sim spans),
    so the cross-process story reads as parallel rows exactly like the
    real deployment.  Wall timestamps are re-based to the trace's first
    span; sim spans are offset by their worker span's wall start so the
    engine's timeline renders *inside* the worker execution that
    produced it, sharing one clock axis.  An ``event`` record and a
    zero-length wall span render as ``i`` instants.
    """
    spans = trace_doc.get("spans", [])
    wall_starts = [s["ts"] for s in spans if s["cat"] == "service"]
    t0 = min(wall_starts) if wall_starts else 0.0
    by_id = {s["sid"]: s for s in spans}
    pids: dict[str, int] = {}

    def rows() -> t.Iterator[_Row]:
        for span in spans:
            wall = span["cat"] == "service"
            worker = str(span.get("worker", "service"))
            ts = float(span["ts"])
            if wall:
                ts -= t0
            else:
                # Sim span ids are namespaced "<workerspan>.r<run>s<sid>";
                # the prefix names the wall-clock worker span they nest
                # under.
                anchor = by_id.get(str(span["sid"]).split(".", 1)[0])
                ts += (float(anchor["ts"]) if anchor else t0) - t0
            duration = max(0.0, float(span["dur"]))
            args = {k: _arg(v) for k, v in (span.get("attrs") or {}).items()}
            args["sid"] = span["sid"]
            if span.get("parent") is not None:
                args["parent"] = span["parent"]
            yield (
                pids.setdefault(worker, len(pids) + 1), worker,
                "wall" if wall else "sim-time", span["name"], span["cat"],
                ts,
                (None if span.get("kind") == "event"
                 or (wall and duration <= 0.0) else duration),
                args,
            )

    return _trace_events(rows(), instant_scope="p", sort_processes=True)


def summary(tracer: TracerLike, top: int = 10,
            metrics: MetricsRegistry | None = None) -> str:
    """A top-N table of span groups by total simulated time.

    Groups by ``(category, name)`` and reports count, total simulated
    seconds, total cycles (when spans carry a ``cycles`` attribute) and
    total self-profiled wall seconds (when enabled).

    When a *metrics* registry is given, a counter table follows —
    including every labelled series (``net.frames_dropped{reason=...}``
    and friends), which the span table alone can never show.
    """
    groups: dict[tuple[str, str], dict[str, float]] = {}
    for span in tracer.spans:
        g = groups.setdefault(
            (span.category, span.name),
            {"count": 0, "sim_s": 0.0, "cycles": 0.0, "wall_s": 0.0},
        )
        g["count"] += 1
        g["sim_s"] += span.duration
        g["cycles"] += float(span.attrs.get("cycles", 0.0) or 0.0)
        if span.wall_s is not None and span.wall_s >= 0:
            g["wall_s"] += span.wall_s
    n_events = len(tracer.events)
    if not groups:
        lines = [f"(no spans recorded; {n_events} events)"]
        lines.extend(_counter_lines(metrics, top))
        return "\n".join(lines)

    ranked = sorted(
        groups.items(), key=lambda item: item[1]["sim_s"], reverse=True
    )[:top]
    has_cycles = any(g["cycles"] > 0 for _, g in ranked)
    has_wall = any(g["wall_s"] > 0 for _, g in ranked)

    header = ["span", "count", "sim total"]
    if has_cycles:
        header.append("cycles")
    if has_wall:
        header.append("wall total")
    rows = []
    for (category, name), g in ranked:
        row = [f"{category}:{name}", str(int(g["count"])),
               f"{g['sim_s'] * 1e6:.1f} us"]
        if has_cycles:
            row.append(f"{g['cycles']:.0f}")
        if has_wall:
            row.append(f"{g['wall_s'] * 1e3:.2f} ms")
        rows.append(row)

    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows))
        for i in range(len(header))
    ]
    lines = [
        f"== trace summary: top {len(rows)} of {len(groups)} span groups "
        f"({len(tracer.spans)} spans, {n_events} events) =="
    ]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    lines.extend(_counter_lines(metrics, top))
    return "\n".join(lines)


def _counter_lines(metrics: MetricsRegistry | None, top: int) -> list[str]:
    """A top-N counter table, one row per (possibly labelled) series.

    Labelled series are first-class rows — ``net.frames_dropped``
    incremented with ``reason=...`` labels shows up as one row per
    reason, not zero rows (the bug this fixes).
    """
    if metrics is None:
        return []
    series: list[tuple[str, float]] = []
    for name in metrics.names():
        metric = metrics.get(name)
        if not isinstance(metric, Counter):
            continue
        for key, value in metric.series().items():
            series.append((f"{name}{_label_text(key)}", value))
    if not series:
        return []
    ranked = sorted(series, key=lambda item: (-item[1], item[0]))[:top]
    width = max(len("counter"), *(len(name) for name, _ in ranked))
    lines = [
        "",
        f"== counters: top {len(ranked)} of {len(series)} series ==",
        f"{'counter'.ljust(width)}  value",
        f"{'-' * width}  -----",
    ]
    for name, value in ranked:
        lines.append(f"{name.ljust(width)}  {value:g}")
    return lines
