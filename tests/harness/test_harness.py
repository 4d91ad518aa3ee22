"""Tests for the harness plumbing: config, results, registry, CLI."""

import pathlib

import pytest

from repro.errors import ConfigurationError
from repro.harness import EXPERIMENTS, ExperimentConfig, run_experiment
from repro.harness.results import ExperimentResult
from tests.harness.test_golden import quick_result


class TestConfig:
    def test_presets(self):
        quick = ExperimentConfig.preset("quick")
        default = ExperimentConfig.preset("default")
        full = ExperimentConfig.preset("full")
        assert quick.rr_transactions < default.rr_transactions
        assert full.rr_transactions > default.rr_transactions
        assert len(full.message_sizes) >= len(default.message_sizes)

    @pytest.mark.parametrize("name", ["warp", "", "QUICK", "quick ", None])
    def test_unknown_preset(self, name):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.preset(name)

    @pytest.mark.parametrize("kwargs", [
        {"stream_duration_s": 0},
        {"stream_duration_s": -0.01},
        {"macro_duration_s": 0},
        {"macro_duration_s": -1.0},
        {"rr_transactions": 1},
        {"rr_transactions": 0},
        {"boot_runs": 1},
        {"message_sizes": ()},
        {"message_sizes": (1024, 1024)},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**kwargs)

    def test_validation_error_messages_name_the_problem(self):
        with pytest.raises(ConfigurationError, match="durations"):
            ExperimentConfig(stream_duration_s=0)
        with pytest.raises(ConfigurationError, match="two samples"):
            ExperimentConfig(boot_runs=1)
        with pytest.raises(ConfigurationError, match="message size"):
            ExperimentConfig(message_sizes=())

    def test_fingerprint_tracks_every_field(self):
        import dataclasses

        base = ExperimentConfig()
        assert base.fingerprint() == ExperimentConfig().fingerprint()
        for field in dataclasses.fields(ExperimentConfig):
            if field.name == "seed":
                changed = dataclasses.replace(base, seed=base.seed + 1)
            elif field.name == "fault_plan":
                changed = dataclasses.replace(base, fault_plan="plan.json")
            elif field.name == "message_sizes":
                changed = dataclasses.replace(base, message_sizes=(64,))
            elif field.name == "loss_rates":
                changed = dataclasses.replace(base, loss_rates=(0.33,))
            elif field.name == "fabric_hosts_per_edge":
                # Doubling would break the <= k/2 bound; shrink instead.
                changed = dataclasses.replace(base,
                                              fabric_hosts_per_edge=1)
            elif field.name == "netstack_backend":
                # Doubling "all" is not a registered backend name.
                changed = dataclasses.replace(base,
                                              netstack_backend="hostlo")
            else:
                value = getattr(base, field.name)
                if isinstance(value, bool):
                    changed = dataclasses.replace(
                        base, **{field.name: not value}
                    )
                else:
                    changed = dataclasses.replace(
                        base, **{field.name: type(value)(value * 2)}
                    )
            assert changed.fingerprint() != base.fingerprint(), field.name


class TestResults:
    def make(self):
        return ExperimentResult(
            experiment="x",
            title="T",
            rows=(
                {"mode": "a", "v": 1.0},
                {"mode": "b", "v": 2.0},
            ),
            notes=("hello",),
        )

    def test_select_and_value(self):
        result = self.make()
        assert result.select(mode="a") == [{"mode": "a", "v": 1.0}]
        assert result.value("v", mode="b") == 2.0

    def test_value_requires_unique(self):
        result = self.make()
        with pytest.raises(ConfigurationError):
            result.value("v")
        with pytest.raises(ConfigurationError):
            result.value("v", mode="c")

    def test_render_contains_all(self):
        text = self.make().render()
        assert "T" in text and "mode" in text and "hello" in text

    def test_empty_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentResult(experiment="x", title="T", rows=())

    def test_columns_union(self):
        result = ExperimentResult(
            experiment="x", title="T",
            rows=({"a": 1}, {"b": 2}),
        )
        assert result.columns() == ["a", "b"]


class TestRegistry:
    def test_all_figures_registered(self):
        expected = {
            "fig02", "fig04", "fig05", "fig06", "fig07", "fig08",
            "fig09", "fig10", "fig11_12", "fig13", "fig14", "fig15",
            "table01", "table02",
            "ablation_hostlo_thread", "ablation_netfilter_cost",
            "ablation_no_batching", "ablation_rule_bloat",
            "ablation_scheduler_policy",
            "online_cost", "analytic_check",
            "chaos", "reliability", "campaign", "fabric", "netstack",
            "service",
        }
        assert set(EXPERIMENTS) == expected

    def test_describe_every_experiment(self):
        from repro.harness.registry import describe

        for experiment in EXPERIMENTS:
            line = describe(experiment)
            assert line and "\n" not in line, experiment

    def test_describe_unknown(self):
        from repro.harness.registry import describe

        with pytest.raises(ConfigurationError):
            describe("fig99")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            run_experiment("fig99")

    def test_tables_run_instantly(self):
        t1 = run_experiment("table01")
        t2 = run_experiment("table02")
        assert len(t1.rows) == 3
        assert {r["application"] for r in t1.rows} == {
            "Memcached", "NGINX", "Kafka",
        }
        assert len(t2.rows) == 6
        assert t2.value("price_per_h", model="24xlarge") == 5.376
        assert t2.value("price_per_h", model="large") == 0.112
        assert t2.value("vCPU", model="24xlarge") == 96

    def test_fig02_quick(self):
        result = quick_result("fig02")
        assert {r["mode"] for r in result.rows} == {"nat", "nocont"}
        assert any("degradation" in n for n in result.notes)
        # Paper: ~68 % throughput degradation, ~31 % latency increase.
        nat = result.value("throughput_mbps", mode="nat")
        nocont = result.value("throughput_mbps", mode="nocont")
        assert nat < 0.6 * nocont
        assert result.value("latency_us", mode="nat") > result.value(
            "latency_us", mode="nocont")


class TestExport:
    def make(self):
        return ExperimentResult(
            experiment="x", title="T",
            rows=({"mode": "a", "v": 1.0}, {"mode": "b", "v": 2.0}),
            notes=("hello",),
        )

    def test_to_json_roundtrip(self):
        import json

        data = json.loads(self.make().to_json())
        assert data["experiment"] == "x"
        assert data["rows"][1]["v"] == 2.0
        assert data["notes"] == ["hello"]

    def test_from_json_inverts_to_json(self):
        original = self.make()
        rebuilt = ExperimentResult.from_json(original.to_json())
        assert rebuilt == original
        assert rebuilt.rows == original.rows
        assert type(rebuilt.rows) is tuple and type(rebuilt.notes) is tuple

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            ExperimentResult.from_json("not json{")
        with pytest.raises(ConfigurationError):
            ExperimentResult.from_json('{"experiment": "x"}')

    def test_with_meta_merges(self):
        result = self.make().with_meta(wall_s=1.5)
        result = result.with_meta(config_fingerprint="abc", wall_s=2.0)
        assert result.meta == {"wall_s": 2.0, "config_fingerprint": "abc"}
        assert "meta: " in result.render()
        assert self.make().meta == {}

    def test_roundtrip_property(self):
        """Property-style: render/columns survive to_json → from_json
        for arbitrary JSON-native rows, notes and meta."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        scalars = st.one_of(
            st.none(), st.booleans(), st.integers(-2**31, 2**31),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(max_size=20),
        )
        keys = st.text(
            st.characters(codec="ascii", exclude_characters="\0"),
            min_size=1, max_size=8,
        )
        rows = st.lists(
            st.dictionaries(keys, scalars, min_size=1, max_size=5),
            min_size=1, max_size=5,
        ).map(tuple)

        @settings(max_examples=60, deadline=None)
        @given(
            rows=rows,
            notes=st.lists(st.text(max_size=30), max_size=3).map(tuple),
            meta=st.dictionaries(keys, scalars, max_size=3),
        )
        def check(rows, notes, meta):
            original = ExperimentResult(
                experiment="prop", title="P",
                rows=rows, notes=notes, meta=meta,
            )
            rebuilt = ExperimentResult.from_json(original.to_json())
            assert rebuilt == original
            assert rebuilt.columns() == original.columns()
            assert rebuilt.render() == original.render()

        check()

    def test_real_experiment_roundtrip(self):
        """An actual registered experiment survives the round trip
        bit for bit — the campaign cache's core assumption."""
        result = run_experiment(
            "fig08", ExperimentConfig.preset("quick")
        ).with_meta(wall_s=0.5, config_fingerprint="abc")
        rebuilt = ExperimentResult.from_json(result.to_json())
        assert rebuilt == result
        assert all(
            type(new_value) is type(old_value)
            for new_row, old_row in zip(rebuilt.rows, result.rows)
            for new_value, old_value in zip(new_row.values(),
                                            old_row.values())
        )

    def test_to_csv(self):
        text = self.make().to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "mode,v"
        assert lines[1] == "a,1.0"


class TestCli:
    def test_main_runs_tables(self, capsys):
        from repro.harness.__main__ import main

        assert main(["table01", "table02", "--preset", "quick"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out

    def test_list_flag(self, capsys):
        from repro.harness.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig09" in out and "ablation_no_batching" in out

    def test_list_flag_describes(self, capsys):
        from repro.harness.__main__ import main
        from repro.harness.registry import describe

        assert main(["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(EXPERIMENTS)
        by_id = {line.split()[0]: line for line in lines}
        assert set(by_id) == set(EXPERIMENTS)
        for experiment, line in by_id.items():
            assert describe(experiment) in line

    def test_serial_run_stamps_meta(self, capsys):
        from repro.harness.__main__ import main

        assert main(["table01", "--preset", "quick"]) == 0
        out = capsys.readouterr().out
        assert "meta: " in out and "wall_s=" in out
        fingerprint = ExperimentConfig.preset("quick").fingerprint()
        assert f"config_fingerprint={fingerprint}" in out

    def test_json_and_csv_export(self, tmp_path, capsys):
        from repro.harness.__main__ import main

        assert main([
            "table02", "--preset", "quick",
            "--json", str(tmp_path / "j"), "--csv", str(tmp_path / "c"),
        ]) == 0
        assert (tmp_path / "j" / "table02.json").exists()
        csv_text = (tmp_path / "c" / "table02.csv").read_text()
        assert "24xlarge" in csv_text

    def test_trace_export(self, tmp_path, capsys):
        import json

        from repro.harness.__main__ import main

        assert main([
            "fig02", "--preset", "quick", "--trace", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "ui.perfetto.dev" in out

        # Chrome trace_event JSON: well-formed, with complete events.
        trace = json.loads((tmp_path / "fig02.trace.json").read_text())
        events = trace["traceEvents"]
        assert events and any(e.get("ph") == "X" for e in events)
        assert all({"ph", "pid"} <= set(e) for e in events)

        # JSONL span dump: every line parses and has the core fields.
        lines = (tmp_path / "fig02.spans.jsonl").read_text().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert {"kind", "cat", "name", "ts", "dur", "run"} <= set(record)

        # Metrics dump: Prometheus-flavoured text.
        metrics_text = (tmp_path / "fig02.metrics.txt").read_text()
        assert "# TYPE" in metrics_text

    def test_trace_leaves_no_active_tracer(self, tmp_path, capsys):
        from repro import obs
        from repro.harness.__main__ import main

        assert main(["fig02", "--preset", "quick",
                     "--trace", str(tmp_path)]) == 0
        capsys.readouterr()
        assert obs.tracer() is obs.NULL


class TestCaptureCli:
    """The --pcap/--flows surfacing (the CI capture smoke runs this
    same path from the command line)."""

    def test_pcap_and_flows_export(self, tmp_path, capsys):
        from repro.harness.__main__ import main
        from repro.obs.pcap import read_pcapng

        assert main([
            "reliability", "--preset", "quick",
            "--pcap", str(tmp_path), "--flows",
        ]) == 0
        out = capsys.readouterr().out
        assert "flow table" in out
        assert "open in Wireshark" in out
        pcap = tmp_path / "reliability.pcapng"
        parsed = read_pcapng(pcap)
        assert parsed.interfaces  # one block per tapped device
        assert parsed.packets
        stamps = [p.ts for p in parsed.packets]
        assert stamps == sorted(stamps)
        assert (tmp_path / "reliability.flows.txt").read_text()

    def test_flows_without_pcap(self, tmp_path, capsys):
        from repro.harness.__main__ import main

        assert main([
            "reliability", "--preset", "quick", "--flows",
            "--trace", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "flow table" in out
        assert not (tmp_path / "reliability.pcapng").exists()
        assert (tmp_path / "reliability.flows.txt").exists()

    def test_capture_filter_flag(self, tmp_path, capsys):
        from repro.harness.__main__ import main
        from repro.obs.pcap import read_pcapng

        assert main([
            "reliability", "--preset", "quick",
            "--pcap", str(tmp_path), "--filter", "host 203.0.113.1",
        ]) == 0
        parsed = read_pcapng(tmp_path / "reliability.pcapng")
        assert parsed.packets == ()  # nothing talks to that host

    def test_profile_prints_self_time_per_package(self, capsys):
        from repro.harness.__main__ import main

        assert main(["reliability", "--preset", "quick", "--profile"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        head = next(i for i, line in enumerate(lines)
                    if line.startswith("[profile: reliability,"))
        assert lines[head + 1].split() == ["package", "self_s", "share"]
        rows = {}
        for line in lines[head + 2:]:
            if not line.strip() or line.startswith(("=", "[")):
                break
            name, seconds, share = line.split()
            rows[name] = (float(seconds), float(share.rstrip("%")))
        assert {"sim", "net"} <= set(rows)
        assert sum(share for _, share in rows.values()) == pytest.approx(
            100.0, abs=0.1 * len(rows))
        # Largest first, and the result itself is still printed.
        assert list(rows.values()) == sorted(rows.values(), reverse=True)
        assert "[reliability finished in" in out

    def test_profile_names_packages(self):
        import repro
        from repro.harness.wallprofile import package_of, package_seconds

        root = pathlib.Path(repro.__file__).parent
        assert package_of(str(root / "sim" / "engine.py")) == "sim"
        assert package_of(str(root / "errors.py")) == "errors"
        assert package_of(str(root / "__init__.py")) == "repro"
        assert package_of(pytest.__file__) == "other"
        # A builtin's time goes to its callers' packages, per caller.
        engine = (str(root / "sim" / "engine.py"), 1, "run")
        walker = (str(root / "net" / "transfer.py"), 1, "run")
        stats = {
            engine: (1, 1, 2.0, 9.0, {}),
            walker: (1, 1, 1.0, 5.0, {}),
            ("~", 0, "<heappush>"): (5, 5, 0.5, 0.5, {
                engine: (3, 3, 0.25, 0.25), walker: (2, 2, 0.25, 0.25)}),
            ("~", 0, "<orphan>"): (1, 1, 0.125, 0.125, {}),
        }
        assert package_seconds(stats) == {"sim": 2.25, "net": 1.25,
                                          "other": 0.125}

    @pytest.mark.parametrize("flags", [["--jobs", "2"], ["--trace", "out"],
                                       ["--flows"]])
    def test_profile_refused_with_other_run_modes(self, flags):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit):
            main(["table01", "--profile", *flags])

    def test_pcap_refused_in_campaign_mode(self, tmp_path):
        import pytest

        from repro.harness.__main__ import main

        with pytest.raises(SystemExit):
            main(["table01", "--jobs", "2", "--pcap", str(tmp_path)])

    def test_captured_runner_reconciles_with_health(self, tmp_path):
        from repro.harness.registry import run_experiment_captured
        from repro.harness import ExperimentConfig

        config = ExperimentConfig.preset("quick")
        _result, trace_art, cap_art = run_experiment_captured(
            "reliability", config, trace_dir=tmp_path,
        )
        assert cap_art.pcap_path is not None and cap_art.pcap_path.exists()
        assert cap_art.packet_count > 0
        assert cap_art.flow_count > 0
        assert "counters" in trace_art.summary  # labelled drops folded in
        session = cap_art.session
        assert session.frames_seen == (
            session.frames_delivered + sum(session.drops.values())
        )
