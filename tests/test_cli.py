"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_choices(self):
        args = build_parser().parse_args(["demo", "quickstart", "--n", "123"])
        assert args.name == "quickstart" and args.n == 123

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        assert "Planar index" in capsys.readouterr().out

    def test_demo_quickstart(self, capsys):
        assert main(["demo", "quickstart", "--n", "2000"]) == 0
        out = capsys.readouterr().out
        assert "indexed 2,000 points" in out
        assert "pruned" in out

    def test_demo_consumption(self, capsys):
        assert main(["demo", "consumption", "--n", "3000"]) == 0
        assert "power factor" in capsys.readouterr().out

    def test_demo_learning(self, capsys):
        assert main(["demo", "learning", "--n", "1500"]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_bench_query(self, capsys):
        assert main(["bench", "query", "--n", "3000", "--indices", "10"]) == 0
        assert "pruning_pct" in capsys.readouterr().out

    def test_bench_topk(self, capsys):
        assert main(["bench", "topk", "--n", "3000", "--indices", "10"]) == 0
        assert "checked_pct" in capsys.readouterr().out

    def test_datasets_synthetic(self, capsys):
        assert main(["datasets", "corr", "--n", "500", "--dim", "3"]) == 0
        assert "corr" in capsys.readouterr().out

    def test_datasets_csv_export(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        assert main(["datasets", "indp", "--n", "50", "--csv", str(target)]) == 0
        assert target.exists()
        header = target.read_text().splitlines()[0]
        assert header.startswith("attr_0")

    def test_demo_quickstart_explain(self, capsys):
        assert main(["demo", "quickstart", "--n", "2000", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN" in out
        assert "candidates:" in out
        assert "pruning:" in out


class TestObsCommand:
    def test_dump_empty(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        assert main(["obs", "dump", "--state", str(state)]) == 0
        # a pristine process may or may not have samples depending on the
        # armed CI mode; the command must succeed either way
        assert capsys.readouterr().out

    def test_export_prometheus_demo(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        assert main(
            ["obs", "export", "--format", "prometheus", "--demo", "--state", str(state)]
        ) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_queries_total counter" in out
        assert "# TYPE repro_query_latency_seconds histogram" in out
        assert "repro_query_latency_seconds_bucket" in out
        assert 'le="+Inf"' in out
        assert 'repro_interval_points_total{interval="si"' in out

    def test_export_json_demo(self, tmp_path, capsys):
        import json

        state = tmp_path / "state.json"
        assert main(
            ["obs", "export", "--format", "json", "--demo", "--state", str(state)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {entry["name"] for entry in payload["metrics"]}
        assert "repro_queries_total" in names

    def test_reset_clears_state_file(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text('{"metrics": []}')
        assert main(["obs", "reset", "--state", str(state)]) == 0
        assert not state.exists()
        assert "cleared" in capsys.readouterr().out

    def test_state_accumulates_across_cli_runs(self, tmp_path, monkeypatch, capsys):
        """Armed CLI invocations merge metrics into the state file."""
        import json

        state = tmp_path / "state.json"
        monkeypatch.setenv("REPRO_OBS_STATE", str(state))
        from repro.obs import runtime as obs_runtime

        # Pin full sampling: the sampled chaos lane runs this suite armed
        # at a rate below 1, which would mute the per-query counters this
        # test asserts on.
        previous = obs_runtime.enable()
        try:
            assert main(["demo", "quickstart", "--n", "2000"]) == 0
        finally:
            obs_runtime.enable(previous)
        capsys.readouterr()
        assert state.exists()
        payload = json.loads(state.read_text())
        names = {entry["name"] for entry in payload["metrics"]}
        assert "repro_queries_total" in names


class TestTelemetryCommands:
    """ISSUE 7 surfaces: obs tail / obs trace, slo check, top."""

    def _emit_records(self, path):
        from repro.obs import events as obs_events

        previous = obs_events.configure(str(path))
        try:
            for index in range(3):
                obs_events.emit(
                    {
                        "ts": 1000.0 + index,
                        "trace_id": f"{index + 1:016x}",
                        "op": "inequality",
                        "latency_ms": 2.0,
                        "sampled": True,
                        "slow": False,
                        "shards": 4,
                        "retries": 0,
                        "n_queries": 1,
                        "degraded": None,
                    }
                )
        finally:
            obs_events.configure(previous)

    def test_obs_tail_renders_records(self, tmp_path, capsys):
        log = tmp_path / "queries.jsonl"
        self._emit_records(log)
        assert main(["obs", "tail", "--log", str(log), "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "0000000000000002" in out and "0000000000000003" in out
        assert "0000000000000001" not in out

    def test_obs_tail_json(self, tmp_path, capsys):
        import json

        log = tmp_path / "queries.jsonl"
        self._emit_records(log)
        assert main(["obs", "tail", "--log", str(log), "--json", "-n", "1"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["op"] == "inequality" and record["shards"] == 4

    def test_obs_tail_without_log_fails(self, capsys):
        from repro.obs import events as obs_events

        previous = obs_events.configure(None)
        try:
            assert main(["obs", "tail"]) == 1
        finally:
            obs_events.configure(previous)
        assert "no query log configured" in capsys.readouterr().out

    def test_obs_trace_from_ring_buffer(self, capsys):
        from repro.obs import clear_traces
        from repro.obs import runtime as obs_runtime
        from repro.obs import trace as obs_trace

        previous = obs_runtime.enable()
        try:
            ctx = obs_trace.begin("inequality")
            obs_trace.finish(ctx, stats={"n_verified": 9})
            assert main(["obs", "trace", ctx.trace_id[:8]]) == 0
        finally:
            clear_traces()
            obs_runtime.enable(previous)
        out = capsys.readouterr().out
        assert "query.inequality" in out
        assert ctx.trace_id in out

    def test_obs_trace_falls_back_to_query_log(self, tmp_path, capsys):
        log = tmp_path / "queries.jsonl"
        self._emit_records(log)
        assert main(["obs", "trace", "0000000000000002", "--log", str(log)]) == 0
        assert "0000000000000002" in capsys.readouterr().out

    def test_obs_trace_no_match(self, tmp_path, capsys):
        log = tmp_path / "queries.jsonl"
        self._emit_records(log)
        assert main(["obs", "trace", "feedface", "--log", str(log)]) == 1
        assert "no trace matching" in capsys.readouterr().out

    def test_obs_trace_requires_target(self, capsys):
        assert main(["obs", "trace"]) == 2
        assert "usage" in capsys.readouterr().out

    def test_slo_check_ok(self, tmp_path, capsys):
        import json

        spec = tmp_path / "slo.json"
        spec.write_text(
            json.dumps(
                {
                    "objectives": [
                        {
                            "name": "lenient",
                            "type": "latency",
                            "quantile": 0.99,
                            "threshold_ms": 1e9,
                        }
                    ]
                }
            )
        )
        state = tmp_path / "state.json"
        assert (
            main(
                ["slo", "check", "--objectives", str(spec), "--state", str(state)]
            )
            == 0
        )
        assert "lenient" in capsys.readouterr().out

    def test_slo_check_violation_exits_one(self, tmp_path, capsys):
        import json

        from repro.obs.metrics import COMPLETENESS_BUCKETS, MetricsRegistry

        reg = MetricsRegistry()
        hist = reg.histogram(
            "repro_answer_completeness",
            "fixture",
            ("kind",),
            COMPLETENESS_BUCKETS,
        )
        for _ in range(10):
            hist.observe(0.5, kind="cli-slo-kind")
        state = tmp_path / "state.json"
        state.write_text(json.dumps(reg.snapshot()))
        spec = tmp_path / "slo.json"
        spec.write_text(
            json.dumps(
                {
                    "objectives": [
                        {
                            "name": "completeness",
                            "type": "completeness",
                            "kind": "cli-slo-kind",
                            "floor": 0.999,
                        }
                    ]
                }
            )
        )
        assert (
            main(
                ["slo", "check", "--objectives", str(spec), "--state", str(state)]
            )
            == 1
        )
        assert "VIOLATED" in capsys.readouterr().out

    def test_slo_check_bad_spec_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["slo", "check", "--objectives", str(bad)]) == 2
        assert "bad SLO spec" in capsys.readouterr().out

    def test_top_once_renders_frame(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        assert main(["top", "--once", "--state", str(state)]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "objective" in out  # the embedded SLO table
