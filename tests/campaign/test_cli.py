"""The campaign CLI: --jobs/--cache/--bench/--seeds/--bench-baseline."""

import json

import pytest

from repro.harness.__main__ import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCampaignMode:
    def test_jobs_flag_runs_campaign(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "table01", "table02", "--preset", "quick",
            "--jobs", "2", "--cache", str(tmp_path / "cache"),
        )
        assert code == 0
        assert "Table 1" in out and "Table 2" in out
        assert "[campaign: 2 jobs, 0 cache hits, 2 workers" in out

    def test_warm_rerun_all_hits(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        args = ("table01", "table02", "--preset", "quick",
                "--jobs", "2", "--cache", cache)
        assert run_cli(capsys, *args)[0] == 0
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert out.count("cache hit (saved") == 2
        assert "[campaign: 2 jobs, 2 cache hits" in out

    def test_no_cache_flag(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        base = ("table01", "--preset", "quick", "--jobs", "2",
                "--cache", cache)
        assert run_cli(capsys, *base)[0] == 0
        code, out, _ = run_cli(capsys, *base, "--no-cache")
        assert code == 0
        assert "cache hit (saved" not in out
        assert "[campaign: 1 jobs, 0 cache hits" in out

    def test_bench_report_written(self, capsys, tmp_path):
        bench_path = tmp_path / "BENCH.json"
        code, out, _ = run_cli(
            capsys, "table01", "--preset", "quick",
            "--jobs", "2", "--bench", str(bench_path),
        )
        assert code == 0 and bench_path.exists()
        data = json.loads(bench_path.read_text())
        assert data["schema"] == "repro.campaign.bench/v1"
        assert data["jobs"] == 1
        assert data["entries"][0]["experiment"] == "table01"

    def test_seeds_axis(self, capsys, tmp_path):
        out_dir = tmp_path / "json"
        code, out, _ = run_cli(
            capsys, "fig08", "--preset", "quick", "--jobs", "2",
            "--seeds", "1,2", "--json", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "fig08-s1.json").exists()
        assert (out_dir / "fig08-s2.json").exists()

    def test_cache_alone_enables_campaign_mode(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "table01", "--preset", "quick",
            "--cache", str(tmp_path / "cache"),
        )
        assert code == 0 and "[campaign: 1 jobs" in out

    def test_bad_jobs_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["table01", "--jobs", "0"])


class TestBenchGate:
    def test_gate_passes_against_own_baseline(self, capsys, tmp_path):
        bench_path = tmp_path / "BENCH.json"
        args = ("table01", "table02", "--preset", "quick", "--jobs", "2",
                "--cache", str(tmp_path / "cache"))
        assert run_cli(capsys, *args, "--bench", str(bench_path))[0] == 0
        # Warm rerun gated against the cold baseline: hits are not
        # compared, so the gate passes trivially-but-correctly.
        code, out, _ = run_cli(
            capsys, *args, "--bench-baseline", str(bench_path)
        )
        assert code == 0
        assert "no regression" in out

    def test_gate_fails_on_regression(self, capsys, tmp_path):
        from repro.campaign import bench as bench_mod

        bench_path = tmp_path / "BENCH.json"
        # fig04 quick runs long enough (~0.7 s) to clear the gate's
        # 0.25 s noise floor; fig02 quick (~0.2 s) no longer does.
        args = ("fig04", "--preset", "quick", "--jobs", "2")
        assert run_cli(capsys, *args, "--bench", str(bench_path))[0] == 0
        # Doctor the baseline: pretend fig02 used to be 100x faster.
        data = json.loads(bench_path.read_text())
        assert data["schema"] == bench_mod.SCHEMA
        for entry in data["entries"]:
            entry["wall_s"] = entry["wall_s"] / 100.0
        data["totals"]["serial_wall_s"] /= 100.0
        bench_path.write_text(json.dumps(data))
        code, out, err = run_cli(
            capsys, *args, "--bench-baseline", str(bench_path)
        )
        assert code == 1
        assert "PERF REGRESSION" in err and "fig04@quick" in err
