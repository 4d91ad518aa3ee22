"""Write-ahead job journal: the service's crash-durability ledger.

Every lifecycle transition the :class:`~repro.service.core.TraceService`
makes — ``accepted``, ``dispatched``, ``done``, ``failed``,
``cancelled`` — is appended here *before* the service acts on it, so a
SIGKILL at any instant loses no accepted work: the next boot replays
the journal and re-admits whatever was in flight.  Design rules, in
the order they matter:

* **Never corrupt what was durable.**  Records are one JSON object per
  line, framed as ``<crc32-hex> <json>\\n``; a reader validates the
  CRC before trusting a line.  A torn tail (the write the crash
  interrupted) is truncated and counted, never fatal; a corrupt record
  mid-stream (bit rot) is skipped and counted.
* **Bound the fsync tax.**  ``fsync="always"`` syncs every append
  (every transition is durable the moment the call returns);
  ``fsync="batch"`` (the default) syncs once per
  :attr:`JournalConfig.batch_records` appends or whenever a *terminal*
  transition lands, whichever comes first.  Every append is handed to
  the OS (``flush``) regardless of policy, so a SIGKILL — which only
  forfeits user-space buffers — never loses a record under any mode;
  the fsync policy solely bounds what a *power loss* can take, and
  that window is a few non-terminal transitions, which recovery
  handles anyway (a lost ``dispatched`` record just replays as
  ``accepted``).  ``fsync="never"`` leaves durability to the OS
  (tests).
* **Bound the disk.**  The journal is a directory of numbered
  segments; when the active segment exceeds
  :attr:`JournalConfig.rotate_records` records, compaction rewrites
  the *live* state (one ``accepted`` record per non-terminal job) into
  a fresh segment — written to a temp file, fsynced, atomically
  renamed, and only then are the old segments unlinked.  The journal
  keeps that live set in memory (seeded by :meth:`JobJournal.replay`,
  folded on every append), so compaction writes without reading a
  segment back.  Terminal jobs leave the journal entirely at
  compaction; their results already live in the content-addressed
  cache.
* **A clean shutdown is free.**  Drain writes a ``shutdown`` marker as
  the final record; a boot that finds it skips replay entirely.

Failed appends (disk full — see the ``service.disk_full`` fault kind)
raise :class:`JournalWriteError`; the service counts them and keeps
serving (availability over durability, loudly).

The ``accepted`` envelope is folded back into resubmission keyword-for-
keyword, so fields the journal never interprets ride along for free —
notably ``trace_id``: a job re-admitted by crash recovery keeps its
original distributed-trace id (with a ``recovered`` baggage tag), and
a trace that straddles a crash stays one trace.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import typing as t
import zlib

from repro import faults
from repro.errors import ConfigurationError, ServiceError

#: Bump when the record grammar changes; checked (leniently) on replay.
JOURNAL_SCHEMA = 1

#: Record types.  ``accepted`` carries the full resubmittable envelope;
#: the rest reference it by job id.
ACCEPTED = "accepted"
DISPATCHED = "dispatched"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
SHUTDOWN = "shutdown"

TERMINAL_RECORDS = frozenset({DONE, FAILED, CANCELLED})
RECORD_TYPES = frozenset(
    {ACCEPTED, DISPATCHED, SHUTDOWN} | TERMINAL_RECORDS
)

FSYNC_MODES = ("always", "batch", "never")


class JournalWriteError(ServiceError):
    """An append could not be made durable (disk full, dead segment)."""


@dataclasses.dataclass(frozen=True)
class JournalConfig:
    """Durability knobs for one :class:`JobJournal`."""

    fsync: str = "batch"
    #: ``fsync="batch"``: sync after this many unsynced appends.
    batch_records: int = 16
    #: Rotate + compact once the active segment holds this many records.
    rotate_records: int = 4096

    def __post_init__(self) -> None:
        if self.fsync not in FSYNC_MODES:
            raise ConfigurationError(
                f"fsync must be one of {FSYNC_MODES}: {self.fsync!r}"
            )
        if self.batch_records < 1:
            raise ConfigurationError("batch_records must be >= 1")
        if self.rotate_records < 2:
            raise ConfigurationError("rotate_records must be >= 2")


@dataclasses.dataclass
class ReplayState:
    """What a journal replay recovered.

    ``live`` maps job id → the ``accepted`` envelope of every job that
    was accepted (and possibly dispatched) but never reached a
    terminal record — the jobs a restarted service must re-admit.
    ``terminal`` maps job id → its final record type for the audit
    trail.  ``clean`` is True when the last record was a clean
    ``shutdown`` marker, in which case ``live`` is empty by
    construction.
    """

    live: dict[str, dict[str, t.Any]] = dataclasses.field(
        default_factory=dict)
    terminal: dict[str, str] = dataclasses.field(default_factory=dict)
    clean: bool = False
    records: int = 0
    torn_records: int = 0
    corrupt_records: int = 0
    segments: int = 0


def _frame(record: dict[str, t.Any]) -> bytes:
    body = json.dumps(record, sort_keys=True, separators=(",", ":"),
                      default=str)
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {body}\n".encode("utf-8")


def _parse_line(line: bytes) -> dict[str, t.Any] | None:
    """Decode one framed record; ``None`` when the CRC or JSON lies."""
    if not line.endswith(b"\n"):
        return None  # torn: the trailing write never finished
    try:
        crc_hex, body = line[:-1].split(b" ", 1)
        if int(crc_hex, 16) != zlib.crc32(body) & 0xFFFFFFFF:
            return None
        record = json.loads(body)
    except (ValueError, json.JSONDecodeError):
        return None
    if not isinstance(record, dict) or record.get("t") not in RECORD_TYPES:
        return None
    return record


class JobJournal:
    """Append-only, CRC-framed, segment-rotated lifecycle journal."""

    def __init__(self, root: str | pathlib.Path,
                 config: JournalConfig | None = None) -> None:
        self.root = pathlib.Path(root)
        self.config = config or JournalConfig()
        self.root.mkdir(parents=True, exist_ok=True)
        self.write_errors = 0
        self.records_written = 0
        self._fh: t.IO[bytes] | None = None
        segments = self._segments()
        self._seq = max(
            (self._segment_index(p) for p in segments), default=0
        )
        #: job id -> ``accepted`` envelope of every job a replay would
        #: find live; ``None`` until :meth:`replay` has read the
        #: segments a new instance found on disk.
        self._live: dict[str, dict[str, t.Any]] | None = (
            None if segments else {})
        self._active_records = 0
        self._unsynced = 0

    # -- segments -----------------------------------------------------

    def _segments(self) -> list[pathlib.Path]:
        return sorted(self.root.glob("seg-*.jsonl"))

    @staticmethod
    def _segment_index(path: pathlib.Path) -> int:
        try:
            return int(path.stem.split("-", 1)[1])
        except (IndexError, ValueError):
            return 0

    def _segment_path(self, seq: int) -> pathlib.Path:
        return self.root / f"seg-{seq:08d}.jsonl"

    @property
    def active_segment(self) -> pathlib.Path:
        return self._segment_path(self._seq)

    def _open_active(self) -> t.IO[bytes]:
        if self._fh is None or self._fh.closed:
            if self._seq == 0:
                self._seq = 1
            self._fh = open(self.active_segment, "ab")
            self._active_records = self._count_records(self.active_segment)
        return self._fh

    @staticmethod
    def _count_records(path: pathlib.Path) -> int:
        try:
            with open(path, "rb") as fh:
                return sum(1 for _ in fh)
        except OSError:
            return 0

    # -- appends ------------------------------------------------------

    def append(self, record_type: str, **fields: t.Any) -> None:
        """Durably (per the fsync policy) log one transition.

        Raises :class:`JournalWriteError` when the disk refuses; the
        caller decides whether that is fatal (it never is for the
        service, which counts and carries on).
        """
        if record_type not in RECORD_TYPES:
            raise ServiceError(
                f"unknown journal record type: {record_type!r}")
        record = {"t": record_type, "schema": JOURNAL_SCHEMA, **fields}
        inj = faults.injector()
        if inj.enabled and inj.fires(
                "service.disk_full", self.active_segment.name):
            self.write_errors += 1
            raise JournalWriteError(
                f"journal write failed: no space left on "
                f"{self.active_segment.name} (injected)"
            )
        try:
            fh = self._open_active()
            fh.write(_frame(record))
            # Hand every record to the OS immediately: a SIGKILL only
            # loses what sits in *user-space* buffers, so this alone
            # makes appends kill-durable.  The fsync policy below only
            # governs the (expensive) power-loss guarantee.
            fh.flush()
            self._active_records += 1
            self.records_written += 1
            self._unsynced += 1
            force = (self.config.fsync == "always"
                     or record_type in TERMINAL_RECORDS
                     or record_type == SHUTDOWN)
            if self.config.fsync != "never" and (
                    force or self._unsynced >= self.config.batch_records):
                self.flush()
        except OSError as exc:
            self.write_errors += 1
            raise JournalWriteError(
                f"journal write failed: {exc}") from exc
        if self._live is not None:
            job_id = fields.get("id")
            if record_type == ACCEPTED and job_id is not None:
                self._live[job_id] = fields
            elif record_type in TERMINAL_RECORDS:
                self._live.pop(job_id, None)
        if self._active_records >= self.config.rotate_records:
            self.rotate()

    def flush(self) -> None:
        if self._fh is None or self._fh.closed:
            return
        self._fh.flush()
        if self.config.fsync != "never":
            os.fsync(self._fh.fileno())
        self._unsynced = 0

    # -- rotation and compaction --------------------------------------

    def rotate(self, live: t.Iterable[dict[str, t.Any]] | None = None
               ) -> pathlib.Path:
        """Compact every segment into a fresh one and drop the old.

        *live* is the snapshot of still-resubmittable ``accepted``
        envelopes to carry forward, and becomes the journal's live set;
        when ``None`` (what :meth:`append` does on auto-rotation) the
        live set the journal keeps is carried, or a replay's when no
        replay has seeded it yet.  The new segment is written aside,
        fsynced, atomically renamed into place, and only then are the
        old segments unlinked — a crash at any point leaves either the
        old segments or a complete new one, never neither.
        """
        try:
            self.flush()  # a replay reads disk; push buffered appends out
        except OSError:
            self.write_errors += 1
        if live is None:
            live = (self._live if self._live is not None
                    else self.replay().live).values()
        live = list(live)
        old = self._segments()
        self.close(mark_clean=False)
        self._seq += 1
        target = self._segment_path(self._seq)
        tmp = target.with_name(target.name + ".tmp")
        with open(tmp, "wb") as fh:
            for envelope in live:
                fh.write(_frame({"t": ACCEPTED, "schema": JOURNAL_SCHEMA,
                                 **envelope}))
            fh.flush()
            if self.config.fsync != "never":
                os.fsync(fh.fileno())
        os.replace(tmp, target)
        for path in old:
            if path != target:
                path.unlink(missing_ok=True)
        self._fh = open(target, "ab")
        self._active_records = len(live)
        self._unsynced = 0
        self._live = {envelope["id"]: envelope for envelope in live
                      if envelope.get("id") is not None}
        return target

    # -- replay -------------------------------------------------------

    def replay(self) -> ReplayState:
        """Fold every segment into the recovered state.

        Torn tails are truncated on disk (so the next append starts at
        a record boundary) and counted; corrupt mid-stream records are
        skipped and counted.  Neither is ever fatal.
        """
        state = ReplayState()
        segments = self._segments()
        state.segments = len(segments)
        for segment in segments:
            self._replay_segment(segment, state,
                                 truncate_tail=segment == segments[-1])
        if state.clean:
            state.live.clear()
        self._live = dict(state.live)
        return state

    def _replay_segment(self, segment: pathlib.Path, state: ReplayState,
                        *, truncate_tail: bool) -> None:
        try:
            raw = segment.read_bytes()
        except OSError:
            return
        offset = 0
        good_end = 0
        while offset < len(raw):
            end = raw.find(b"\n", offset)
            line = raw[offset:] if end < 0 else raw[offset:end + 1]
            record = _parse_line(line)
            if record is None:
                if end < 0 or offset + len(line) >= len(raw):
                    # The unfinished write at the very tail.
                    state.torn_records += 1
                else:
                    state.corrupt_records += 1
                offset = len(raw) if end < 0 else end + 1
                continue
            good_end = end + 1
            offset = end + 1
            state.records += 1
            self._fold(record, state)
        if truncate_tail and good_end < len(raw):
            with open(segment, "ab") as fh:
                fh.truncate(good_end)

    @staticmethod
    def _fold(record: dict[str, t.Any], state: ReplayState) -> None:
        kind = record["t"]
        if kind == SHUTDOWN:
            state.clean = bool(record.get("clean", False))
            return
        state.clean = False  # any activity after a marker reopens it
        job_id = record.get("id")
        if job_id is None:
            return
        if kind == ACCEPTED:
            envelope = {key: value for key, value in record.items()
                        if key not in ("t", "schema")}
            state.live[job_id] = envelope
            state.terminal.pop(job_id, None)
        elif kind in TERMINAL_RECORDS:
            state.live.pop(job_id, None)
            state.terminal[job_id] = kind
        # DISPATCHED does not change liveness: an accepted job stays
        # live until a terminal record lands.

    # -- shutdown -----------------------------------------------------

    def mark_clean(self) -> None:
        """Append the clean-shutdown marker (skips replay next boot)."""
        self.append(SHUTDOWN, clean=True)

    def close(self, *, mark_clean: bool = False) -> None:
        if mark_clean:
            self.mark_clean()
        if self._fh is not None and not self._fh.closed:
            try:
                self.flush()
            except OSError:
                self.write_errors += 1
            self._fh.close()
        self._fh = None
