"""Locality-First on one hot HiGHS session per day vs fresh per-slot LPs,
capacity freshness of LP builds, and the policies' shared demand check."""

import math
import pickle

import pytest

from repro.analysis.metrics import evaluate_batch
from repro.core.lp import JointAssignmentLp
from repro.core.policies import LocalityFirstPolicy, TitanNextPolicy, TitanPolicy, WrrPolicy
from repro.core.scenario import Scenario
from repro.core.titan_next import oracle_demand_for_day
from repro.net.latency import INTERNET
from repro.scenarios import build_scenario
from tests.oracles.lf_reference import lf_reference_assign

OBJECTIVES = ("total_latency", "total_e2e")


@pytest.fixture(scope="module")
def zoo_setups():
    """The apac and global zoo scenarios at fast-loop scale."""
    return {
        name: build_scenario(name, daily_calls=2_000.0, top_n_configs=30)
        for name in ("apac", "global")
    }


def private_scenario(scenario: Scenario) -> Scenario:
    """A cold copy of ``scenario`` owning its own capacity book."""
    return pickle.loads(pickle.dumps(scenario))


def assert_same_plan(scenario, ours, ref):
    assert set(ours) == set(ref)
    for key, count in ref.items():
        assert abs(ours[key] - count) <= 1e-9 * max(1.0, count), key
    ours_eval = evaluate_batch(scenario, ours, "lf")
    ref_eval = evaluate_batch(scenario, ref, "lf")
    assert ours_eval.sum_of_peaks_gbps == pytest.approx(ref_eval.sum_of_peaks_gbps, rel=1e-9)
    assert ours_eval.mean_e2e_ms() == pytest.approx(ref_eval.mean_e2e_ms(), rel=1e-9)


class TestHotLfMatchesFreshSolves:
    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("day", [2, 5, 6])
    def test_europe(self, small_setup, day, objective):
        demand = oracle_demand_for_day(small_setup, day)
        ours = LocalityFirstPolicy(small_setup.scenario, objective).assign(demand)
        ref = lf_reference_assign(small_setup.scenario, demand, objective)
        assert_same_plan(small_setup.scenario, ours, ref)

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("day", [2, 6])
    @pytest.mark.parametrize("name", ["apac", "global"])
    def test_zoo(self, zoo_setups, name, day, objective):
        setup = zoo_setups[name]
        demand = oracle_demand_for_day(setup, day)
        ours = LocalityFirstPolicy(setup.scenario, objective).assign(demand)
        ref = lf_reference_assign(setup.scenario, demand, objective)
        assert_same_plan(setup.scenario, ours, ref)

    def test_slot_with_a_strict_subset_of_the_day_configs(self, small_setup):
        full = oracle_demand_for_day(small_setup, 2)
        busy = {c: n for (t, c), n in full.items() if t == 16}
        sparse = sorted(busy, key=str)[::3]
        demand = {(16, c): n for c, n in busy.items()}
        demand.update({(17, c): busy[c] for c in sparse})
        ours = LocalityFirstPolicy(small_setup.scenario).assign(demand)
        ref = lf_reference_assign(small_setup.scenario, demand)
        assert_same_plan(small_setup.scenario, ours, ref)
        assert {c for (t, c, _, _) in ours if t == 17} == set(sparse)

    def test_infeasible_slot_raises_with_its_number(self, small_setup):
        full = oracle_demand_for_day(small_setup, 2)
        demand = {k: n for k, n in full.items() if k[0] == 10}
        demand.update({(20, c): n * 1e4 for (t, c), n in full.items() if t == 20})
        with pytest.raises(RuntimeError, match="slot 20"):
            lf_reference_assign(small_setup.scenario, demand)
        with pytest.raises(RuntimeError, match="slot 20"):
            LocalityFirstPolicy(small_setup.scenario).assign(demand)

    def test_empty_demand_gives_empty_plan(self, small_setup):
        assert LocalityFirstPolicy(small_setup.scenario).assign({}) == {}


class TestCapacityChangesAreSeen:
    """LP builds read the capacity book at build time, never from the
    per-config memo: zeroing a pair's Internet capacity on a scenario
    whose memo is warm must drop that pair's Internet columns exactly
    as a freshly constructed scenario does."""

    def test_zeroed_pair_loses_internet_columns(self, small_setup):
        scenario = private_scenario(small_setup.scenario)
        demand = {k: n for k, n in oracle_demand_for_day(small_setup, 2).items() if k[0] < 20}
        _, before = JointAssignmentLp(scenario, demand).build()
        lf_before = LocalityFirstPolicy(scenario).assign(demand)
        assert scenario._lp_rows
        # A pair LF routes over the Internet, so the change matters.
        country, dc = next(
            (c.countries[0], d) for (_, c, d, o) in sorted(lf_before, key=str) if o == INTERNET
        )
        scenario.capacity_book.set_gbps(country, dc, 0.0)

        fresh = scenario.with_capacity_book(scenario.capacity_book)
        assert not fresh._lp_rows
        _, after = JointAssignmentLp(scenario, demand).build()
        _, cold = JointAssignmentLp(fresh, demand).build()
        assert after == cold
        assert not any(
            o == INTERNET and d == dc and country in c.countries for (_, c, d, o) in after
        )
        assert len(after) < len(before)
        lf_after = LocalityFirstPolicy(scenario).assign(demand)
        assert lf_after == LocalityFirstPolicy(fresh).assign(demand)
        assert not any(
            o == INTERNET and d == dc and country in c.countries for (_, c, d, o) in lf_after
        )


def _policies(scenario):
    return [
        WrrPolicy(scenario),
        TitanPolicy(scenario),
        LocalityFirstPolicy(scenario),
        TitanNextPolicy(scenario),
    ]


class TestBadDemandIsRejected:
    @pytest.fixture
    def demand(self, small_setup):
        return {k: n for k, n in oracle_demand_for_day(small_setup, 2).items() if k[0] < 4}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("index", range(4), ids=["wrr", "titan", "lf", "titan-next"])
    def test_bad_count_names_its_key(self, small_setup, demand, bad, index):
        key = sorted(demand, key=lambda k: (k[0], str(k[1])))[len(demand) // 2]
        policy = _policies(small_setup.scenario)[index]
        with pytest.raises(ValueError) as excinfo:
            policy.assign({**demand, key: bad})
        assert str(key) in str(excinfo.value)

    @pytest.mark.parametrize("index", range(4), ids=["wrr", "titan", "lf", "titan-next"])
    def test_zero_total_compute(self, small_setup, demand, index):
        scenario = private_scenario(small_setup.scenario)
        scenario.compute_caps = {dc: 0.0 for dc in scenario.dc_codes}
        policy = _policies(scenario)[index]
        with pytest.raises(ValueError, match="compute capacity"):
            policy.assign(demand)

    def test_zero_counts_are_fine(self, small_setup, demand):
        zeroed = {**demand, next(iter(demand)): 0.0}
        for policy in _policies(small_setup.scenario):
            policy.assign(zeroed)
