"""Tests for the benchmark harness utilities."""

from __future__ import annotations

import pytest

from repro.bench import Timer, TimingResult, format_table, print_table, time_call


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as timer:
            total = sum(range(10_000))
        assert total > 0
        assert timer.seconds >= 0.0
        assert timer.millis == pytest.approx(timer.seconds * 1000.0)


class TestTimeCall:
    def test_returns_distribution(self):
        calls = []
        result = time_call(lambda: calls.append(1), repeat=4)
        assert len(calls) == 4
        assert isinstance(result, TimingResult)
        assert result.repeat == 4
        assert 0.0 <= result.min <= result.median <= result.max
        assert float(result) == result.min

    def test_to_dict(self):
        result = time_call(lambda: None, repeat=3)
        payload = result.to_dict()
        assert set(payload) == {"min", "median", "max", "repeat"}
        assert payload["repeat"] == 3.0

    def test_repeat_validation(self):
        with pytest.raises(ValueError):
            time_call(lambda: None, repeat=0)

    def test_empty_times_rejected(self):
        with pytest.raises(ValueError):
            TimingResult(())

    def test_routes_into_bench_histogram(self):
        from repro.obs import metrics as obs_metrics
        from repro.obs import runtime as obs_runtime

        registry = obs_metrics.registry()
        before = registry.n_samples()
        previous = obs_runtime.enable()
        try:
            time_call(lambda: None, repeat=2, name="harness-test")
        finally:
            obs_runtime.enable(previous)
        histogram = obs_metrics.bench_seconds()
        assert histogram.count(bench="harness-test") >= 2
        assert registry.n_samples() >= before + 2


class TestFormatTable:
    def test_alignment_and_headers(self):
        rows = [
            {"name": "a", "value": 1.2345, "count": 10},
            {"name": "longer", "value": 1234.5, "count": 2},
        ]
        text = format_table("demo", rows)
        lines = text.splitlines()
        assert lines[0] == "== demo =="
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_float_formatting(self):
        text = format_table("t", [{"v": 0.00012}, {"v": 12.3}, {"v": 4567.0}])
        assert "0.0001" in text
        assert "12.30" in text
        assert "4567" in text

    def test_empty(self):
        assert "(no rows)" in format_table("t", [])

    def test_print_table_smoke(self, capsys):
        print_table("t", [{"a": 1}])
        captured = capsys.readouterr()
        assert "== t ==" in captured.out
