"""The write-ahead job journal: framing, replay, rotation, faults."""

import pytest

from repro import faults
from repro.errors import ConfigurationError, ServiceError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.service import journal as journal_mod
from repro.service.journal import (
    ACCEPTED,
    DISPATCHED,
    DONE,
    JobJournal,
    JournalConfig,
    JournalWriteError,
    _frame,
)
from repro.sim import RngRegistry


def journal(tmp_path, **config_kwargs):
    defaults = {"fsync": "never"}  # tests don't need real durability
    return JobJournal(tmp_path / "journal",
                      JournalConfig(**{**defaults, **config_kwargs}))


def envelope(job_id, **extra):
    return {"id": job_id, "key": f"sleep:0.0:{job_id}", "kind": "sleep",
            "payload": {"label": job_id}, "client": "t", "priority": 0,
            **extra}


class TestConfig:
    def test_bad_fsync_mode(self):
        with pytest.raises(ConfigurationError, match="fsync"):
            JournalConfig(fsync="sometimes")

    def test_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            JournalConfig(batch_records=0)
        with pytest.raises(ConfigurationError):
            JournalConfig(rotate_records=1)

    def test_unknown_record_type_is_refused(self, tmp_path):
        with pytest.raises(ServiceError, match="record type"):
            journal(tmp_path).append("exploded", id="j1")


class TestReplay:
    def test_roundtrip_tracks_liveness(self, tmp_path):
        j = journal(tmp_path)
        j.append(ACCEPTED, **envelope("j1"))
        j.append(ACCEPTED, **envelope("j2"))
        j.append(DISPATCHED, id="j1", attempt=1)
        j.append(DONE, id="j1", key="k", cache_hit=False)
        j.close()

        state = journal(tmp_path).replay()
        assert set(state.live) == {"j2"}  # dispatched-not-done stays live
        assert state.live["j2"]["payload"] == {"label": "j2"}
        assert state.terminal == {"j1": DONE}
        assert not state.clean
        assert state.records == 4
        assert state.torn_records == state.corrupt_records == 0

    def test_clean_marker_empties_live(self, tmp_path):
        j = journal(tmp_path)
        j.append(ACCEPTED, **envelope("j1"))
        j.append(DONE, id="j1")
        j.close(mark_clean=True)

        state = journal(tmp_path).replay()
        assert state.clean and state.live == {}

    def test_activity_after_marker_reopens(self, tmp_path):
        j = journal(tmp_path)
        j.mark_clean()
        j.append(ACCEPTED, **envelope("j1"))
        j.close()

        state = journal(tmp_path).replay()
        assert not state.clean
        assert set(state.live) == {"j1"}

    def test_torn_tail_is_truncated_and_counted(self, tmp_path):
        j = journal(tmp_path)
        j.append(ACCEPTED, **envelope("j1"))
        j.close()
        segment = j.active_segment
        good = segment.read_bytes()
        torn = _frame({"t": ACCEPTED, "schema": 1, "id": "j2"})[:-7]
        segment.write_bytes(good + torn)  # the write a crash interrupted

        fresh = journal(tmp_path)
        state = fresh.replay()
        assert set(state.live) == {"j1"}
        assert state.torn_records == 1
        assert segment.read_bytes() == good  # tail gone from disk
        # The next append lands on a clean record boundary.
        fresh.append(ACCEPTED, **envelope("j3"))
        fresh.close()
        again = journal(tmp_path).replay()
        assert set(again.live) == {"j1", "j3"}
        assert again.torn_records == 0

    def test_corrupt_midstream_record_is_skipped(self, tmp_path):
        j = journal(tmp_path)
        j.append(ACCEPTED, **envelope("j1"))
        j.append(ACCEPTED, **envelope("j2"))
        j.close()
        segment = j.active_segment
        lines = segment.read_bytes().splitlines(keepends=True)
        lines[0] = b"deadbeef " + lines[0].split(b" ", 1)[1]  # bad CRC
        segment.write_bytes(b"".join(lines))

        state = journal(tmp_path).replay()
        assert set(state.live) == {"j2"}  # the good record after survives
        assert state.corrupt_records == 1
        assert state.torn_records == 0

    def test_empty_directory_replays_empty(self, tmp_path):
        state = journal(tmp_path).replay()
        assert state.live == {} and state.records == 0
        assert state.segments == 0


class TestRotation:
    def test_auto_rotation_compacts_to_live_jobs(self, tmp_path):
        j = journal(tmp_path, rotate_records=8)
        for i in range(6):
            j.append(ACCEPTED, **envelope(f"j{i}"))
        for i in range(4):
            j.append(DONE, id=f"j{i}")
        j.close()
        # 10 appends crossed the threshold: one segment, only live rows
        # (the 4 terminal jobs at rotation time compacted away).
        segments = sorted(j.root.glob("seg-*.jsonl"))
        assert len(segments) == 1
        state = journal(tmp_path).replay()
        assert set(state.live) == {"j4", "j5"}
        assert state.records < 10  # compaction dropped terminal history

    def test_auto_rotation_reads_no_segment(self, tmp_path, monkeypatch):
        j = journal(tmp_path)
        for i in range(3):
            j.append(ACCEPTED, **envelope(f"j{i}"))
        j.append(DONE, id="j0")
        j.close()
        # A reopened journal learns its live set from the boot replay;
        # from then on compaction writes it without reading back.
        j = journal(tmp_path, rotate_records=8)
        assert set(j.replay().live) == {"j1", "j2"}
        j.append(DISPATCHED, id="j1", attempt=1)  # opens the segment
        before = j.active_segment

        def no_reads(path, mode="r", *args, **kwargs):
            assert "r" not in mode, f"opened {path} to read"
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(journal_mod, "open", no_reads, raising=False)
        monkeypatch.setattr(
            JobJournal, "_replay_segment",
            lambda *args, **kwargs: pytest.fail("replayed a segment"))
        for i in range(3, 6):
            j.append(ACCEPTED, **envelope(f"j{i}"))
        j.append(DONE, id="j1")
        assert j.active_segment != before  # the threshold was crossed
        monkeypatch.undo()
        j.close()
        assert set(journal(tmp_path).replay().live) == {"j2", "j3", "j4",
                                                        "j5"}

    def test_explicit_rotate_with_snapshot(self, tmp_path):
        j = journal(tmp_path)
        j.append(ACCEPTED, **envelope("j1"))
        before = j.active_segment
        j.rotate(live=[envelope("j9")])
        assert j.active_segment != before
        assert not before.exists()
        state = j.replay()
        assert set(state.live) == {"j9"}
        j.close()

    def test_rotation_preserves_buffered_appends(self, tmp_path):
        """Regression: rotate() once replayed from disk, and appends
        still in the stdio buffer vanished; the live set it carries
        now must hold them too."""
        j = journal(tmp_path, batch_records=100)
        j.append(ACCEPTED, **envelope("j1"))
        j.rotate()  # live=None: the journal's own live set
        state = j.replay()
        assert set(state.live) == {"j1"}
        j.close()


class TestDiskFullFault:
    def test_injected_enospc_raises_and_counts(self, tmp_path):
        j = journal(tmp_path)
        rng = RngRegistry(3)
        inj = FaultInjector(
            FaultPlan(specs=(FaultSpec(kind="service.disk_full"),)),
            rng.stream("faults"),
        )
        with faults.use(inj):
            with pytest.raises(JournalWriteError, match="no space"):
                j.append(ACCEPTED, **envelope("j1"))
        assert j.write_errors == 1
        # The fault gone, the journal keeps working.
        j.append(ACCEPTED, **envelope("j2"))
        j.close()
        assert set(journal(tmp_path).replay().live) == {"j2"}

    def test_targeted_segment_glob(self, tmp_path):
        j = journal(tmp_path)
        rng = RngRegistry(3)
        inj = FaultInjector(
            FaultPlan(specs=(
                FaultSpec(kind="service.disk_full", target="seg-999*"),
            )),
            rng.stream("faults"),
        )
        with faults.use(inj):  # targets a segment we never write
            j.append(ACCEPTED, **envelope("j1"))
        assert j.write_errors == 0
        j.close()
