"""Array kernels of the controllers vs their per-call references.

Every case replays one or more trace tables through a shipped
controller's ``process_table`` and through the per-call loop of
``tests/oracles/controller_reference.py`` from identical state, then
asserts the same placements, :class:`ControllerStats`, capacity-tracker
arrays (WRR, LF), quota state and recent configs (Titan-Next), and the
same next uniform of the random stream.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import controller as controller_module
from repro.core.controller import (
    FirstJoinerLf,
    FirstJoinerTitan,
    FirstJoinerWrr,
    TitanNextController,
)
from repro.core.lp import JointAssignmentLp, JointLpOptions
from repro.core.plan import OfflinePlan
from repro.core.scenario import Scenario
from repro.core.titan_next import (
    build_europe_setup,
    oracle_demand_for_day,
    predicted_demand_for_day,
)
from repro.workload.traces import CallTable, TraceGenerator
from tests.oracles.controller_reference import (
    ReferenceLf,
    ReferenceTitan,
    ReferenceTitanNext,
    ReferenceWrr,
)

DAY = 30


def _plan_assignment(setup, predicted=False):
    demand = (predicted_demand_for_day if predicted else oracle_demand_for_day)(setup, DAY)
    solved = JointAssignmentLp(setup.scenario, demand, JointLpOptions(e2e_bound_ms=75.0)).solve()
    assert solved.is_optimal
    return solved.assignment


@pytest.fixture(scope="module")
def assignment(small_setup):
    return _plan_assignment(small_setup)


@pytest.fixture(scope="module")
def generator(small_setup):
    return TraceGenerator(small_setup.demand, top_n_configs=small_setup.top_n_configs, seed=5)


@pytest.fixture(scope="module")
def day(generator):
    return generator.table_for_day(DAY)


def _rows(table, order):
    return CallTable(
        table.configs,
        table.config_idx[order],
        table.start_slot[order],
        table.duration_slots[order],
        table.first_joiner_idx[order],
    )


def _placements(assignments):
    return [(a.initial_dc, a.initial_option, a.final_dc, a.final_option) for a in assignments]


def _tracker_usage(tracker):
    """Usage keyed by names, so row order (countries first seen in a
    different order) does not matter; all-zero rows are dropped."""
    internet = {
        code: tracker._internet[row].tolist()
        for code, row in tracker.country_index.items()
        if tracker._internet[row].any()
    }
    return tracker._compute.tolist(), internet


def _quota_state(reference, batch):
    """Remaining quota per touched plan entry on both sides."""
    index = batch._quota_index
    expected, actual = {}, {}
    for (slot, config), entry in reference.plan._entries.items():
        expected[(slot, config)] = entry.weights()
    if index is None:
        return expected, {k: batch.plan.entry(*k).weights() for k in expected}
    for (slot, config) in expected:
        key = index._key_index.get(config)
        row = -1
        if key is not None and slot < index._rows.shape[0]:
            row = int(index._rows[slot, key])
        source = batch.plan.entry(slot, config).weights()
        if row < 0:
            actual[(slot, config)] = source
        else:
            actual[(slot, config)] = [
                (bucket, float(index.quota[row, b])) for b, (bucket, _) in enumerate(source)
            ]
    return expected, actual


def _next_uniform(controller):
    stream = getattr(controller, "_uniform_stream", None)
    if stream is not None:
        return float(stream.take(1)[0])
    rng = getattr(controller, "rng", None)
    return float(rng.random()) if rng is not None else None


def assert_equivalent(reference, batch, tables):
    """Replay ``tables`` through both controllers; assert equal state."""
    expected = [reference.process(call) for table in tables for call in table]
    actual = [a for table in tables for a in batch.process_table(table)]
    assert _placements(actual) == _placements(expected)
    assert batch.stats == reference.stats
    if hasattr(reference, "tracker"):
        assert _tracker_usage(batch.tracker) == _tracker_usage(reference.tracker)
    if isinstance(reference, ReferenceTitanNext):
        quota_expected, quota_actual = _quota_state(reference, batch)
        assert quota_actual == quota_expected
        index = batch._quota_index
        recent = {c: index.key_config(k) for c, k in batch._recent_key.items()} if index else {}
        assert recent == reference._recent_config
    assert _next_uniform(batch) == _next_uniform(reference)


CONTROLLERS = ["wrr", "lf", "titan", "titan-next"]


def _pair(scenario, name, assignment=None, reduce_configs=True):
    """A (reference, batch) controller pair over one scenario."""
    if name == "titan-next":
        return tuple(
            cls(
                scenario,
                OfflinePlan.from_assignment(assignment),
                seed=7,
                reduce_configs=reduce_configs,
            )
            for cls in (ReferenceTitanNext, TitanNextController)
        )
    reference, batch, kwargs = {
        "wrr": (ReferenceWrr, FirstJoinerWrr, {"seed": 3}),
        "lf": (ReferenceLf, FirstJoinerLf, {}),
        "titan": (ReferenceTitan, FirstJoinerTitan, {"seed": 4}),
    }[name]
    return reference(scenario, **kwargs), batch(scenario, **kwargs)


@pytest.mark.parametrize("name", CONTROLLERS)
class TestKernelEquivalence:
    def test_day(self, small_setup, assignment, day, name):
        assert_equivalent(*_pair(small_setup.scenario, name, assignment), [day])

    def test_congested(self, small_setup, assignment, day, name):
        """Compute caps cut to 5%: most calls skip buckets, many overflow."""
        scenario = small_setup.scenario
        congested = Scenario(
            scenario.world,
            scenario.latency,
            scenario.country_codes,
            scenario.dc_codes,
            scenario.capacity_book.scaled(0.3),
            {dc: cap * 0.05 for dc, cap in scenario.compute_caps.items()},
        )
        reference, batch = _pair(congested, name, assignment)
        assert_equivalent(reference, batch, [day])
        if name in ("wrr", "lf"):
            assert batch.stats.unplanned > len(day) // 2

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_row_order(self, small_setup, assignment, generator, name, order):
        window = generator.table_for_window(DAY * 48 + 16, 6)
        rows = (
            np.arange(len(window))[::-1]
            if order == "reversed"
            else np.random.default_rng(0).permutation(len(window))
        )
        assert_equivalent(*_pair(small_setup.scenario, name, assignment), [_rows(window, rows)])

    def test_window_across_midnight(self, small_setup, assignment, generator, name):
        window = generator.table_for_window(DAY * 48 + 44, 8)
        assert window.start_slot.max() >= (DAY + 1) * 48
        assert_equivalent(*_pair(small_setup.scenario, name, assignment), [window])

    def test_split_tables(self, small_setup, assignment, generator, name):
        first = generator.table_for_window(DAY * 48 + 14, 5)
        second = generator.table_for_window(DAY * 48 + 19, 5, id_offset=len(first))
        assert_equivalent(*_pair(small_setup.scenario, name, assignment), [first, second])

    def test_participant_outside_scenario_countries(self, small_setup, assignment, day, name):
        """IT and FR participants keep their Internet caps but have no row
        in the scenario's country list."""
        scenario = small_setup.scenario
        narrowed = Scenario(
            scenario.world,
            scenario.latency,
            [c for c in scenario.country_codes if c not in ("IT", "FR")],
            scenario.dc_codes,
            scenario.capacity_book,
            {dc: cap * 0.3 for dc, cap in scenario.compute_caps.items()},
        )
        assert any({"IT", "FR"} & set(c.countries) for c in day.configs)
        assert_equivalent(*_pair(narrowed, name, assignment), [day])

    def test_empty_table(self, small_setup, assignment, day, name):
        empty = _rows(day, np.zeros(0, dtype=np.int64))
        assert_equivalent(*_pair(small_setup.scenario, name, assignment), [empty, day])


def test_titan_next_raw_configs(small_setup, assignment, day):
    assert_equivalent(*_pair(small_setup.scenario, "titan-next", assignment, False), [day])


def test_titan_next_restarts_when_integer_quotas_empty(small_setup, assignment, day, monkeypatch):
    """Whole-unit quotas at half the demand empty entries mid-slot: the
    batch path restarts its speculation there, and calls with no live
    guess take the surge fallback."""
    rounded = {key: float(round(count / 2)) for key, count in assignment.items()}
    rewinds = []
    original = controller_module._UniformStream.rewind

    def counting(self, mark):
        rewinds.append(mark)
        original(self, mark)

    monkeypatch.setattr(controller_module._UniformStream, "rewind", counting)
    reference, batch = _pair(small_setup.scenario, "titan-next", rounded)
    assert_equivalent(reference, batch, [day])
    assert rewinds
    assert batch.stats.unplanned > 0


@pytest.fixture(
    scope="module", params=[(150_000, 60), (40_000, 150)], ids=["replay-size", "default"]
)
def full_day(request):
    daily_calls, configs = request.param
    setup = build_europe_setup(daily_calls=daily_calls, top_n_configs=configs)
    table = TraceGenerator(setup.demand, top_n_configs=configs, seed=1).table_for_day(DAY)
    return setup, table


@pytest.mark.slow
@pytest.mark.parametrize("name", CONTROLLERS)
def test_full_day(full_day, name):
    setup, table = full_day
    plan = _plan_assignment(setup, predicted=True) if name == "titan-next" else None
    assert_equivalent(*_pair(setup.scenario, name, plan), [table])


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    seed=st.integers(0, 2**16),
    calls=st.integers(1, 120),
    slots=st.integers(1, 6),
    cap_scale=st.floats(0.001, 0.2),
    name=st.sampled_from(CONTROLLERS),
)
def test_random_tables_and_caps(small_setup, assignment, day, seed, calls, slots, cap_scale, name):
    """Random rows (configs, slots, durations, first joiners) against
    shrunken compute caps: the kernels stay call-for-call exact."""
    rng = np.random.default_rng(seed)
    configs = day.configs[:20]
    config_idx = rng.integers(0, len(configs), calls)
    starts = np.sort(rng.integers(DAY * 48, DAY * 48 + slots, calls))
    table = CallTable(
        configs,
        config_idx,
        starts,
        rng.integers(1, 4, calls),
        [rng.integers(0, len(configs[c].countries)) for c in config_idx],
    )
    scenario = small_setup.scenario
    capped = Scenario(
        scenario.world,
        scenario.latency,
        scenario.country_codes,
        scenario.dc_codes,
        scenario.capacity_book.scaled(cap_scale * 5),
        {dc: cap * cap_scale for dc, cap in scenario.compute_caps.items()},
    )
    assert_equivalent(*_pair(capped, name, assignment), [table])


def test_titan_next_plan_only_dcs_in_encounter_order(small_setup, assignment, generator):
    """Plan buckets at DCs outside the scenario are listed after the
    scenario's DCs, in the order each table's draws first reach them."""
    renamed = {}
    for i, ((slot, config, dc, option), count) in enumerate(sorted(assignment.items(), key=str)):
        dc = {0: "plan-only-b", 1: "plan-only-a"}.get(i % 7, dc)
        renamed[(slot, config, dc, option)] = renamed.get((slot, config, dc, option), 0.0) + count
    tables = [generator.table_for_window(DAY * 48 + start, 6) for start in (14, 20)]
    reference, batch = _pair(small_setup.scenario, "titan-next", renamed)
    expected = [[reference.process(call) for call in table] for table in tables]
    for table, placements in zip(tables, expected):
        result = batch.process_table(table)
        assert _placements(result) == _placements(placements)
        reached = []
        for a in placements:
            for dc in (a.initial_dc, a.final_dc):
                if dc not in small_setup.scenario.dc_codes and dc not in reached:
                    reached.append(dc)
        assert result.dc_codes == tuple(small_setup.scenario.dc_codes) + tuple(reached)
        assert reached
