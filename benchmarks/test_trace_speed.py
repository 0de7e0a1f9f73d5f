"""Trace-synthesis and controller-day speed — batch vs per-call paths.

On the default 150-config intra-Europe scenario (~40k calls/day),
``TraceGenerator.table_for_day`` must synthesize one day's calls at
least 5x faster than the scalar per-call reference, and a full
controller day through ``process_table`` must beat the per-call loop of
``tests/oracles/controller_reference.py`` by each controller's floor —
while reproducing its calls, placements and :class:`ControllerStats`
exactly.  Each controller pin records the per-call and batch seconds,
their ratio and the batch µs/call.
"""

import time

import pytest

from repro.core.controller import FirstJoinerLf, FirstJoinerWrr, TitanNextController
from repro.core.lp import JointAssignmentLp, JointLpOptions
from repro.core.plan import OfflinePlan
from repro.core.titan_next import build_europe_setup, predicted_demand_for_day
from repro.workload.traces import TraceGenerator
from tests.oracles.controller_reference import ReferenceLf, ReferenceTitanNext, ReferenceWrr

pytestmark = pytest.mark.slow

REQUIRED_TRACE_SPEEDUP = 5.0
REQUIRED_CONTROLLER_SPEEDUP = 3.0
#: Half the per-call/batch ratios measured on a 2-CPU dev box
#: (WRR 5.8-6.9x, LF 2.8-3.2x; Titan-Next measures 10.6-12.5x).
REQUIRED_WRR_SPEEDUP = 3.0
REQUIRED_LF_SPEEDUP = 1.5
DAY = 30


@pytest.fixture(scope="module")
def default_setup():
    """Default Europe scenario (§7.3 scale: 150 configs, 40k calls)."""
    return build_europe_setup()


@pytest.fixture(scope="module")
def day_table(default_setup):
    setup = default_setup
    return TraceGenerator(setup.demand, top_n_configs=setup.top_n_configs, seed=71).table_for_day(
        DAY
    )


def _best_of(fn, rounds=2):
    """Minimum wall-clock over a few rounds (damps scheduler noise)."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _placements(assignments):
    return [
        (a.call.call_id, a.initial_dc, a.initial_option, a.final_dc, a.final_option)
        for a in assignments
    ]


def _controller_day(name, table, make_reference, make_batch, record_bench):
    """Time one controller day both ways; assert identical outcomes."""
    calls = table.to_calls()

    def reference_day():
        controller = make_reference()
        return [controller.process(call) for call in calls], controller.stats

    def batch_day():
        controller = make_batch()
        return controller.process_table(table), controller.stats

    t_ref, (ref_assignments, ref_stats) = _best_of(reference_day)
    t_new, (batch, batch_stats) = _best_of(batch_day)

    assert batch_stats == ref_stats
    assert _placements(batch) == _placements(ref_assignments)

    speedup = t_ref / t_new
    us_per_call = t_new / len(table) * 1e6
    record_bench(
        reference_s=round(t_ref, 4),
        batch_s=round(t_new, 4),
        speedup=round(speedup, 2),
        us_per_call=round(us_per_call, 3),
        calls=len(table),
    )
    print(
        f"\n{name} controller day: per-call {t_ref:.2f} s, batch {t_new:.3f} s "
        f"-> {speedup:.1f}x ({len(table)} calls, {us_per_call:.2f} us/call)"
    )
    return speedup, ref_stats


def test_table_synthesis_is_5x_faster_with_identical_calls(default_setup, record_bench):
    setup = default_setup
    reference = TraceGenerator(setup.demand, top_n_configs=setup.top_n_configs, seed=71)
    batched = TraceGenerator(setup.demand, top_n_configs=setup.top_n_configs, seed=71)
    t_ref, calls = _best_of(lambda: reference.calls_for_day(DAY))
    t_new, table = _best_of(lambda: batched.table_for_day(DAY))

    assert len(table) == len(calls)
    assert table.to_calls() == calls

    speedup = t_ref / t_new
    record_bench(
        reference_s=round(t_ref, 4),
        batch_s=round(t_new, 4),
        speedup=round(speedup, 2),
        us_per_call=round(t_new / len(table) * 1e6, 3),
    )
    print(
        f"\ntrace synthesis: scalar {t_ref * 1e3:.0f} ms, "
        f"batched {t_new * 1e3:.0f} ms -> {speedup:.1f}x ({len(calls)} calls)"
    )
    assert speedup >= REQUIRED_TRACE_SPEEDUP


def test_controller_day_is_3x_faster_with_identical_stats(default_setup, day_table, record_bench):
    setup = default_setup
    options = JointLpOptions(e2e_bound_ms=75.0)
    predicted = predicted_demand_for_day(setup, DAY)
    solved = JointAssignmentLp(setup.scenario, predicted, options).solve()
    assert solved.is_optimal

    speedup, stats = _controller_day(
        "titan-next",
        day_table,
        lambda: ReferenceTitanNext(
            setup.scenario, OfflinePlan.from_assignment(solved.assignment), seed=72
        ),
        lambda: TitanNextController(
            setup.scenario, OfflinePlan.from_assignment(solved.assignment), seed=72
        ),
        record_bench,
    )
    print(f"titan-next: {stats.dc_migration_rate:.1%} DC migrations")
    assert speedup >= REQUIRED_CONTROLLER_SPEEDUP


def test_wrr_controller_day_speedup_with_identical_placements(
    default_setup, day_table, record_bench
):
    scenario = default_setup.scenario
    speedup, _ = _controller_day(
        "wrr",
        day_table,
        lambda: ReferenceWrr(scenario, seed=73),
        lambda: FirstJoinerWrr(scenario, seed=73),
        record_bench,
    )
    assert speedup >= REQUIRED_WRR_SPEEDUP


def test_lf_controller_day_speedup_with_identical_placements(
    default_setup, day_table, record_bench
):
    scenario = default_setup.scenario
    speedup, _ = _controller_day(
        "lf",
        day_table,
        lambda: ReferenceLf(scenario),
        lambda: FirstJoinerLf(scenario),
        record_bench,
    )
    assert speedup >= REQUIRED_LF_SPEEDUP
