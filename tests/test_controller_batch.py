"""Batch controller paths vs the per-call references.

For identical uniform streams on the Europe scenario, every
controller's ``process_table`` reproduces the per-call loop of
``tests/oracles/controller_reference.py`` — the same
:class:`ControllerStats` *and* the same per-call placements.
"""

import numpy as np
import pytest

from repro.core.controller import (
    AssignmentBatch,
    FirstJoinerLf,
    FirstJoinerTitan,
    FirstJoinerWrr,
    TitanNextController,
)
from repro.core.lp import JointAssignmentLp
from repro.core.plan import OfflinePlan
from repro.core.titan_next import oracle_demand_for_day, run_prediction_day
from repro.workload.traces import TraceGenerator
from tests.oracles.controller_reference import (
    ReferenceLf,
    ReferenceTitan,
    ReferenceTitanNext,
    ReferenceWrr,
)


@pytest.fixture(scope="module")
def plan_assignment(small_setup):
    demand = oracle_demand_for_day(small_setup, day=30)
    result = JointAssignmentLp(small_setup.scenario, demand).solve()
    assert result.is_optimal
    return result.assignment


@pytest.fixture(scope="module")
def day_table(small_setup):
    generator = TraceGenerator(
        small_setup.demand, top_n_configs=small_setup.top_n_configs, seed=5
    )
    return generator.table_for_window(30 * 48 + 14, 10)


def _placements(assignments):
    return [
        (a.call.call_id, a.initial_dc, a.initial_option, a.final_dc, a.final_option)
        for a in assignments
    ]


class TestBatchEquivalence:
    def test_titan_next_matches_scalar(self, small_setup, plan_assignment, day_table):
        scalar = ReferenceTitanNext(
            small_setup.scenario, OfflinePlan.from_assignment(plan_assignment), seed=7
        )
        batched = TitanNextController(
            small_setup.scenario, OfflinePlan.from_assignment(plan_assignment), seed=7
        )
        reference = [scalar.process(call) for call in day_table.to_calls()]
        batch = batched.process_table(day_table)
        assert _placements(batch) == _placements(reference)
        assert batched.stats == scalar.stats
        assert batch.dc_migrations == scalar.stats.dc_migrations
        assert batch.option_migrations == scalar.stats.option_migrations

    def test_titan_next_raw_configs_match_scalar(self, small_setup, plan_assignment, day_table):
        scalar = ReferenceTitanNext(
            small_setup.scenario,
            OfflinePlan.from_assignment(plan_assignment),
            seed=7,
            reduce_configs=False,
        )
        batched = TitanNextController(
            small_setup.scenario,
            OfflinePlan.from_assignment(plan_assignment),
            seed=7,
            reduce_configs=False,
        )
        reference = [scalar.process(call) for call in day_table.to_calls()]
        assert _placements(batched.process_table(day_table)) == _placements(reference)
        assert batched.stats == scalar.stats

    @pytest.mark.parametrize(
        "make,reference",
        [
            (lambda s: FirstJoinerWrr(s, seed=3), lambda s: ReferenceWrr(s, seed=3)),
            (lambda s: FirstJoinerLf(s), lambda s: ReferenceLf(s)),
            (lambda s: FirstJoinerTitan(s, seed=4), lambda s: ReferenceTitan(s, seed=4)),
        ],
        ids=["wrr", "lf", "titan"],
    )
    def test_baseline_matches_scalar(self, small_setup, day_table, make, reference):
        scalar = reference(small_setup.scenario)
        batched = make(small_setup.scenario)
        reference = [scalar.process(call) for call in day_table.to_calls()]
        batch = batched.process_table(day_table)
        assert _placements(batch) == _placements(reference)
        assert batched.stats == scalar.stats
        assert batched.stats.calls == len(day_table)

    def test_split_tables_equal_one_continuous_pass(self, small_setup, plan_assignment):
        """Successive process_table calls behave like one stream: the
        quota snapshot, uniform buffer, and recent-config state carry
        over, so splitting a window matches the scalar loop over all
        calls."""
        generator = TraceGenerator(
            small_setup.demand, top_n_configs=small_setup.top_n_configs, seed=5
        )
        first = generator.table_for_window(30 * 48 + 14, 5)
        second = generator.table_for_window(30 * 48 + 19, 5, id_offset=len(first))
        scalar = ReferenceTitanNext(
            small_setup.scenario, OfflinePlan.from_assignment(plan_assignment), seed=7
        )
        batched = TitanNextController(
            small_setup.scenario, OfflinePlan.from_assignment(plan_assignment), seed=7
        )
        reference = [scalar.process(call) for call in first.to_calls() + second.to_calls()]
        batch = _placements(batched.process_table(first)) + _placements(
            batched.process_table(second)
        )
        assert batch == _placements(reference)
        assert batched.stats == scalar.stats

    def test_empty_table(self, small_setup, plan_assignment, day_table):
        empty = day_table.__class__(
            day_table.configs,
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
        for controller in (
            TitanNextController(small_setup.scenario, OfflinePlan.from_assignment(plan_assignment)),
            FirstJoinerWrr(small_setup.scenario),
            FirstJoinerLf(small_setup.scenario),
            FirstJoinerTitan(small_setup.scenario),
        ):
            batch = controller.process_table(empty)
            assert len(batch) == 0
            assert batch.to_list() == []


class TestAssignmentBatch:
    def test_views_and_counters(self, small_setup, day_table):
        controller = FirstJoinerTitan(small_setup.scenario, seed=4)
        batch = controller.process_table(day_table)
        assert isinstance(batch, AssignmentBatch)
        assert len(batch) == len(day_table)
        first = batch[0]
        assert first.call == day_table.call(0)
        assert batch[-1].call == day_table.call(len(day_table) - 1)
        # Titan never migrates: initial and final always agree.
        assert batch.dc_migrations == 0
        assert batch.option_migrations == 0
        assert all(not a.dc_migrated for a in batch)

    def test_realized_table_matches_per_call_accumulation(self, small_setup, day_table):
        from repro.analysis.metrics import realized_assignment_table

        controller = FirstJoinerWrr(small_setup.scenario, seed=3)
        batch = controller.process_table(day_table)
        vectorized = realized_assignment_table(batch, slots_per_day=48)
        manual = {}
        for a in batch:
            key = (a.call.start_slot % 48, a.call.config, a.final_dc, a.final_option)
            manual[key] = manual.get(key, 0.0) + 1.0
        assert vectorized == manual


@pytest.mark.slow
class TestPipelineBatchPaths:
    def test_run_prediction_day_returns_batches_with_stats(self, small_setup):
        results = run_prediction_day(small_setup, day=30)
        for name, result in results.items():
            assert isinstance(result.assignments, AssignmentBatch)
            assert result.stats is not None
            assert result.stats.calls == len(result.assignments)
            table = result.realized_table()
            assert sum(table.values()) == pytest.approx(len(result.assignments))
        # Baselines never migrate; titan-next does its reconciliation.
        assert results["wrr"].stats.dc_migrations == 0
        assert results["lf"].stats.dc_migrations == 0
        assert results["titan"].stats.dc_migrations == 0
