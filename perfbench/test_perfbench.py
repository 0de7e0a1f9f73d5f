"""Smoke tests of the benchmark itself, at a size that runs in seconds.

Every workload runs once untraced and once traced at smoke size.  The
untraced run must print every end-to-end metric, the traced run every
per-layer metric, each finite and with its unit; both must count zero
failed operations, which includes the traced sweep reproducing the untraced
sweep's outputs and the pooled window matching the ``workers=1`` reference.
"""

import math

import pytest

from perfbench import layers
from perfbench.harness import END_TO_END, PER_LAYER, Harness
from perfbench.run import WORKLOAD_NAMES
from perfbench.spans import Recorder, Span, Target, self_seconds
from perfbench.workloads import SMOKE_WORKLOADS, WORKLOADS

SEED = 1


def _assert_metrics(result, units):
    assert set(result.metrics) == set(units)
    for name, metric in result.metrics.items():
        assert metric["unit"] == units[name], name
        assert math.isfinite(metric["value"]), name


def test_every_workload_has_a_smoke_size_and_a_command_line_name():
    assert set(WORKLOADS) == set(SMOKE_WORKLOADS) == set(WORKLOAD_NAMES)


@pytest.mark.parametrize("name", sorted(SMOKE_WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = Harness(SMOKE_WORKLOADS[name], SEED, seconds=0.0, min_sweeps=1).untraced()
    assert result.record["failures"] == []
    assert result.correct and result.failed == 0 and result.attempted > 0
    _assert_metrics(result, END_TO_END)
    for metric in END_TO_END:
        assert result.metrics[metric]["value"] > 0, metric


@pytest.mark.parametrize("name", sorted(SMOKE_WORKLOADS))
def test_traced_run_matches_untraced_and_covers_its_wall_clock(name):
    result = Harness(SMOKE_WORKLOADS[name], SEED, seconds=0.0, min_sweeps=1).traced()
    assert result.record["failures"] == []
    assert result.correct and result.failed == 0
    _assert_metrics(result, PER_LAYER)
    values = {metric: entry["value"] for metric, entry in result.metrics.items()}
    covered = sum(values[f"self_s.{layer}"] for layer in layers.LAYERS)
    assert covered + values["trace.uncovered_s"] == pytest.approx(values["trace.traced_wall_s"])
    assert result.spans is not None and result.spans["traceEvents"]


class _Probe:
    def work(self, n):
        return n + 1


class _Child(_Probe):
    pass


def test_recorder_nests_spans_and_restores_targets():
    recorder = Recorder()
    targets = [Target(_Probe, "work", "outer.work"), Target(_Child, "work", "inner.work")]
    with recorder.installed(targets):
        with recorder.span("run"):
            assert _Child().work(1) == 2
            assert _Probe().work(2) == 3
    assert "work" not in vars(_Child)
    assert _Probe.work.__qualname__ == "_Probe.work"
    names = [(span.name, span.parent) for span in recorder.spans]
    assert names == [("run", -1), ("inner.work", 0), ("outer.work", 0)]
    assert sum(self_seconds(recorder.spans)) == pytest.approx(recorder.spans[0].seconds)


def test_entry_call_self_time_counts_as_uncovered():
    second = 1_000_000_000
    spans = [
        Span(layers.ROOT, 0, 10 * second),
        Span("sweep.window", 1 * second, 9 * second, parent=0),
        Span("controller.wrr", 2 * second, 5 * second, parent=1, attrs={"calls": 3}),
    ]
    values = layers.layer_metrics(spans, days=1)
    assert values["trace.traced_wall_s"] == pytest.approx(10.0)
    assert values["trace.uncovered_s"] == pytest.approx(2.0 + 5.0)
    assert values["self_s.controller"] == pytest.approx(3.0)
    assert values["self_s.sweep"] == 0.0
    assert values["controller.wrr.us_per_call"] == pytest.approx(1e6)
