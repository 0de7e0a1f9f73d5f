"""Equivalence tests: array-first LP assembly vs the scalar reference,
block-API backend agreement, and the multi-day PlanCache."""

import numpy as np
import pytest

from repro.core.lp import JointAssignmentLp, JointLpOptions
from repro.core.titan_next import PlanCache, oracle_demand_for_day, plan_cache_for_days
from repro.solver.model import LinearProgram, LinExpr
from repro.solver.scipy_backend import PreparedHighs
from tests.oracles.lp_reference import build_reference


@pytest.fixture(scope="module")
def demand_day(small_setup):
    full = oracle_demand_for_day(small_setup, day=2)
    return {k: v for k, v in full.items() if k[0] < 8}


OPTION_SETS = [
    JointLpOptions(),
    JointLpOptions(allow_internet=False),
    JointLpOptions(per_pair_internet_cap=False),
    JointLpOptions(objective="total_latency"),
    JointLpOptions(objective="total_e2e"),
    JointLpOptions(single_dc_per_config=True),
    JointLpOptions(internet_capacity_factor=2.0),
]


class TestBuildEquivalence:
    @pytest.mark.parametrize("options", OPTION_SETS, ids=lambda o: f"{o.objective}-{o.allow_internet}-{o.per_pair_internet_cap}-{o.single_dc_per_config}-{o.internet_capacity_factor}")
    def test_same_shape_and_objective_as_reference(self, small_setup, demand_day, options):
        builder = JointAssignmentLp(small_setup.scenario, demand_day, options)
        ref_lp, ref_names = build_reference(builder)
        new_lp, new_names = builder.build()
        assert new_lp.num_variables == ref_lp.num_variables
        assert new_lp.num_constraints == ref_lp.num_constraints
        assert set(new_names) == set(ref_names)
        ref = PreparedHighs(ref_lp).solve()
        new = PreparedHighs(new_lp).solve()
        assert ref.status == new.status == "optimal"
        assert new.objective == pytest.approx(ref.objective, rel=1e-6, abs=1e-6)

    def test_var_name_table_matches_reference(self, small_setup, demand_day):
        builder = JointAssignmentLp(small_setup.scenario, demand_day)
        _, ref_names = build_reference(builder)
        _, new_names = builder.build()
        assert new_names == ref_names

    def test_objective_vectors_identical(self, small_setup, demand_day):
        """Same column order → bit-identical objective coefficients."""
        builder = JointAssignmentLp(small_setup.scenario, demand_day)
        ref_lp, _ = build_reference(builder)
        new_lp, _ = builder.build()
        np.testing.assert_array_equal(ref_lp.objective_vector(), new_lp.objective_vector())


def lp_fingerprint(lp, var_names):
    """Everything a solver sees of a built LP, as comparable values:
    column order, objective, both constraint matrices, RHS and bounds."""
    prepared = PreparedHighs(lp)
    parts = [sorted(var_names.items(), key=lambda kv: kv[1]), prepared.c.tobytes()]
    for matrix in (prepared.a_ub, prepared.a_eq):
        if matrix is not None:
            matrix = matrix.tocsr()
            matrix.sort_indices()
            parts += [matrix.indptr.tobytes(), matrix.indices.tobytes(), matrix.data.tobytes()]
    parts += [v.tobytes() for v in prepared._rhs_vectors() if v is not None]
    parts.append(prepared.bounds.tobytes())
    return parts


MEMO_OPTION_SETS = [
    JointLpOptions(),
    JointLpOptions(objective="total_latency"),
    JointLpOptions(objective="total_e2e"),
    JointLpOptions(allow_internet=False),
    JointLpOptions(internet_capacity_factor=0.0),
    JointLpOptions(internet_capacity_factor=2.0),
    JointLpOptions(per_pair_internet_cap=False),
    JointLpOptions(single_dc_per_config=True),
]


class TestConfigRowMemo:
    """The scenario's per-config coefficient memo changes no LP."""

    @pytest.mark.parametrize("options", MEMO_OPTION_SETS, ids=lambda o: repr(o)[15:60])
    def test_warm_memo_builds_the_cold_lp_byte_for_byte(self, small_setup, demand_day, options):
        scenario = small_setup.scenario
        # Warm the memo through another day and option set first.
        other = oracle_demand_for_day(small_setup, day=5)
        JointAssignmentLp(scenario, other, JointLpOptions(objective="total_e2e")).build()
        assert scenario._lp_rows
        cold = scenario.with_capacity_book(scenario.capacity_book)
        assert not cold._lp_rows
        warm_lp = JointAssignmentLp(scenario, demand_day, options).build()
        cold_lp = JointAssignmentLp(cold, demand_day, options).build()
        assert lp_fingerprint(*warm_lp) == lp_fingerprint(*cold_lp)


class TestBlockApi:
    def test_blocks_agree_with_scalar_constraints(self):
        # min x + 2y  s.t. x + y >= 4, x - y <= 1, x + 2y == 6.
        lp_scalar = LinearProgram()
        x = lp_scalar.add_variable("x")
        y = lp_scalar.add_variable("y")
        lp_scalar.add_constraint(x + y >= 4)
        lp_scalar.add_constraint(x - y <= 1)
        lp_scalar.add_constraint(x + 2 * y == 6)
        lp_scalar.set_objective(x + 2 * y)

        lp_blocks = LinearProgram()
        handles = lp_blocks.add_variables(2)
        lp_blocks.add_constraint_block([0, 0], handles, [1.0, 1.0], ">=", [4.0])
        lp_blocks.add_constraint_block([0, 0], handles, [1.0, -1.0], "<=", [1.0])
        lp_blocks.add_constraint_block([0, 0], handles, [1.0, 2.0], "==", [6.0])
        c = np.array([1.0, 2.0])
        lp_blocks.set_objective_array(c)

        for method in ("simplex", "highs"):
            a = lp_scalar.solve(method=method)
            b = lp_blocks.solve(method=method)
            assert a.status == b.status == "optimal"
            assert a.objective == pytest.approx(b.objective, rel=1e-6, abs=1e-6)

    def test_duplicate_coo_entries_accumulate(self):
        lp = LinearProgram()
        handles = lp.add_variables(1)
        # 0.5x + 0.5x >= 3  ==  x >= 3.
        lp.add_constraint_block([0, 0], [0, 0], [0.5, 0.5], ">=", [3.0])
        lp.set_objective_array(np.ones(1))
        for method in ("simplex", "highs"):
            solution = lp.solve(method=method)
            assert solution.objective == pytest.approx(3.0)

    def test_block_validation(self):
        lp = LinearProgram()
        lp.add_variables(2)
        with pytest.raises(ValueError):
            lp.add_constraint_block([0], [5], [1.0], "<=", [1.0])  # col out of range
        with pytest.raises(ValueError):
            lp.add_constraint_block([2], [0], [1.0], "<=", [1.0])  # row out of range
        with pytest.raises(ValueError):
            lp.add_constraint_block([0], [0], [1.0], "<", [1.0])  # bad sense

    def test_lazy_names_and_values(self):
        lp = LinearProgram()
        handles = lp.add_variables(2, namer=lambda i: f"q[{i}]")
        lp.add_constraint_block([0, 0], handles, [1.0, 1.0], ">=", [2.0])
        lp.set_objective_array(np.array([1.0, 3.0]))
        solution = lp.solve(method="highs")
        assert lp.variable_name(1) == "q[1]"
        assert solution.value_at(0) == pytest.approx(2.0)
        assert solution["q[0]"] == pytest.approx(2.0)

    def test_mixed_scalar_and_batch_variables(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        handles = lp.add_variables(2, namer=lambda i: f"b[{i}]")
        expr = LinExpr()
        expr.add_term(x).add_terms(handles, [1.0, 1.0])
        lp.add_constraint(expr >= 6)
        c = np.array([1.0, 2.0, 3.0])
        lp.set_objective_array(c)
        solution = lp.solve(method="highs")
        assert solution.objective == pytest.approx(6.0)
        assert solution[x] == pytest.approx(6.0)


class TestPlanCache:
    def test_cached_solves_match_fresh_builds(self, small_setup):
        days = [2, 3]
        cache, demands = plan_cache_for_days(small_setup, days)
        for day in days:
            bound = 80.0 if day % 7 >= 5 else 75.0
            cached = cache.solve_day(demands[day], e2e_bound_ms=bound)
            fresh = JointAssignmentLp(
                small_setup.scenario, demands[day], JointLpOptions(e2e_bound_ms=bound)
            ).solve()
            assert cached.is_optimal and fresh.is_optimal
            assert cached.objective == pytest.approx(fresh.objective, rel=1e-6, abs=1e-6)
            assert cached.sum_of_peaks() == pytest.approx(fresh.sum_of_peaks(), rel=1e-5, abs=1e-6)

    def test_cache_reuses_structure(self, small_setup):
        days = [2, 3, 4]
        cache, demands = plan_cache_for_days(small_setup, days)
        n_vars, n_cons = cache.num_variables, cache.num_constraints
        for day in days:
            cache.solve_day(demands[day])
        assert cache.solves == 3
        assert cache.num_variables == n_vars
        assert cache.num_constraints == n_cons

    def test_unknown_demand_key_rejected(self, small_setup):
        demand = oracle_demand_for_day(small_setup, day=2)
        some_config = next(iter(demand))[1]
        cache = PlanCache(small_setup.scenario, [some_config], slots=[0, 1])
        with pytest.raises(KeyError):
            cache.solve_day({(40, some_config): 5.0})

    def test_oracle_day_rejects_mismatched_cache_options(self, small_setup):
        """run_oracle_day must not silently ignore non-RHS option diffs."""
        from repro.core.titan_next import run_oracle_day

        cache, demands = plan_cache_for_days(small_setup, [2])
        with pytest.raises(ValueError):
            run_oracle_day(
                small_setup,
                2,
                policies=("titan-next",),
                lp_options=JointLpOptions(allow_internet=False),
                plan_cache=cache,
                demand=demands[2],
            )
        # A bound-only difference is the supported per-day variation.
        results = run_oracle_day(
            small_setup,
            2,
            policies=("titan-next",),
            lp_options=JointLpOptions(e2e_bound_ms=80.0),
            plan_cache=cache,
            demand=demands[2],
        )
        assert "titan-next" in results

    def test_rejects_unsupported_modes(self, small_setup):
        demand = oracle_demand_for_day(small_setup, day=2)
        configs = sorted({c for _, c in demand}, key=str)
        with pytest.raises(ValueError):
            PlanCache(small_setup.scenario, configs, options=JointLpOptions(objective="total_latency"))
        with pytest.raises(ValueError):
            PlanCache(small_setup.scenario, configs, options=JointLpOptions(single_dc_per_config=True))
