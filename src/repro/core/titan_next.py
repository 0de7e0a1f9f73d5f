"""The full Titan-Next pipeline (Fig 12) and the evaluation harnesses.

Building blocks, wired exactly as in the paper:

1. **call records DB** → per-config demand history (4 weeks);
2. **call count prediction** — Holt-Winters per top config, 24 h ahead
   at 30-minute slots;
3. **call config grouping** — reduce + group (§6.2);
4. **offline precomputed plan** — the Fig 13 LP;
5. **controller for online assignment** — first-joiner assignment with
   migration reconciliation (§6.4).

Two evaluation harnesses mirror the paper's two modes:

* :func:`run_oracle_week` (§7) — policies see the true demand;
* :func:`run_prediction_day` (§8) — Titan-Next plans on forecasts and
  assigns per call; baselines see only the first joiner.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..geo.world import World, default_world
from ..net.latency import LatencyModel
from ..workload.configs import CallConfig, group_by_reduced
from ..workload.demand import SLOTS_PER_DAY, ConfigUniverse, DemandModel
from ..workload.traces import CallTable, TraceGenerator
from .capacity import InternetCapacityBook
from .controller import (
    AssignmentBatch,
    CallAssignment,
    ControllerStats,
    FirstJoinerLf,
    FirstJoinerTitan,
    FirstJoinerWrr,
    TitanNextController,
)
from .forecast import HoltWinters, forecast_day
from .lp import AssignmentTable, JointAssignmentLp, JointLpOptions, JointLpResult, extract_result
from .plan import OfflinePlan
from .policies import LocalityFirstPolicy, TitanNextPolicy, TitanPolicy, WrrPolicy
from .scenario import Scenario, calibrate_compute_caps, estimate_pair_traffic_gbps

#: Default European MP DCs (§7.3 evaluates intra-Europe calls only).
EUROPE_EVAL_DCS = ("uk-south", "france-central", "westeurope", "switzerland-north", "ireland")


@dataclass
class EuropeSetup:
    """Everything the evaluation harnesses share."""

    world: World
    scenario: Scenario
    universe: ConfigUniverse
    demand: DemandModel
    top_n_configs: int
    capacity_book: InternetCapacityBook


def build_europe_setup(
    daily_calls: float = 40_000.0,
    top_n_configs: int = 150,
    internet_fraction: float = 0.18,
    disabled_countries: Sequence[str] = ("DE", "AT"),
    seed: int = 67,
    world: Optional[World] = None,
    latency: Optional[LatencyModel] = None,
) -> EuropeSetup:
    """The default intra-Europe evaluation scenario.

    Internet capacities mimic a converged Titan: most pairs sit near the
    20% cap (we default to 18%, reflecting "some countries had 5-15%
    ... due to performance deterioration"), and the paper's problem
    countries are disabled outright.  Pass a real
    :class:`~repro.core.titan.Titan`-produced book via
    ``Scenario.with_capacity_book`` for a fully closed loop.
    """
    world = world if world is not None else default_world()
    latency = latency if latency is not None else LatencyModel(world)
    eu_countries = [c.code for c in world.europe_countries]
    dcs = [code for code in EUROPE_EVAL_DCS]
    universe = ConfigUniverse(world.europe_countries, seed=seed)
    demand = DemandModel(universe, daily_calls=daily_calls, seed=seed + 1)

    traffic = estimate_pair_traffic_gbps(demand, eu_countries, dcs, top_n_configs=top_n_configs)
    book = InternetCapacityBook()
    rng = np.random.default_rng(seed + 2)
    for country in eu_countries:
        for dc in dcs:
            # Converged fractions vary per pair (5%..cap), as §7.4 notes.
            # Drawn unconditionally — before the disabled check — so the
            # stream position of every later pair is independent of the
            # disabled set and books stay comparable across ablations.
            fraction = float(min(0.20, max(0.05, rng.normal(internet_fraction, 0.03))))
            if country in disabled_countries:
                book.disable(country, dc)
                continue
            book.set_fraction(country, dc, fraction)
            book.set_gbps(country, dc, fraction * traffic[(country, dc)])

    caps = calibrate_compute_caps(world, dcs, demand, top_n_configs=top_n_configs)
    scenario = Scenario(world, latency, eu_countries, dcs, book, compute_caps=caps)
    return EuropeSetup(world, scenario, universe, demand, top_n_configs, book)


def day_e2e_bound_ms(day: int) -> float:
    """§7.5's per-day E2E bound: 75 ms weekdays, relaxed to 80 weekends."""
    return 80.0 if day % 7 >= 5 else 75.0


# ---------------------------------------------------------------------------
# Demand tables
# ---------------------------------------------------------------------------


def _table_from_matrix(
    matrix: np.ndarray, configs: Sequence[CallConfig], reduced: bool
) -> Dict[Tuple[int, CallConfig], float]:
    """A per-day demand table from a ``(configs, slots)`` count matrix.

    ``reduced=True`` buckets rows by reduced call config (§6.2) in one
    pass — each row is scaled by its reduction factor and accumulated
    onto its reduced group's slot vector — then emits the positive
    entries.  ``False`` keeps raw configs (the Table 4 ablation).
    """
    table: Dict[Tuple[int, CallConfig], float] = {}
    if reduced:
        buckets: Dict[CallConfig, np.ndarray] = {}
        for i, config in enumerate(configs):
            row = matrix[i]
            if not row.any():
                continue
            group = config.reduced()
            contribution = row * float(config.reduction_factor())
            if group in buckets:
                buckets[group] = buckets[group] + contribution
            else:
                buckets[group] = contribution
        for config, slot_values in buckets.items():
            for t in np.nonzero(slot_values > 0)[0]:
                table[(int(t), config)] = float(slot_values[t])
    else:
        for i, config in enumerate(configs):
            row = matrix[i]
            for t in np.nonzero(row > 0)[0]:
                table[(int(t), config)] = float(row[t])
    return table


def oracle_demand_for_day(
    setup: EuropeSetup, day: int, reduced: bool = True
) -> Dict[Tuple[int, CallConfig], float]:
    """True (sampled) demand for one day, keyed by slot-of-day.

    One ``counts_matrix`` call samples the whole (configs, slots) day;
    ``reduced=True`` groups by reduced call config (§6.2), ``False``
    keeps raw configs (the Table 4 ablation).
    """
    counts = setup.demand.counts_matrix(
        day * SLOTS_PER_DAY, SLOTS_PER_DAY, top_n=setup.top_n_configs
    )
    configs = [item.config for item in setup.universe.top(setup.top_n_configs)]
    return _table_from_matrix(counts, configs, reduced)


def predicted_demand_for_day(
    setup: EuropeSetup,
    day: int,
    history_weeks: int = 4,
    reduced: bool = True,
) -> Dict[Tuple[int, CallConfig], float]:
    """Holt-Winters forecast of one day's demand (§6.1(2)).

    Forecasts are per call config (the paper predicts configs, not
    reduced configs, §8.3) and grouped to reduced configs afterwards.
    The whole sweep is batched: one ``counts_matrix`` window for the
    history of every top config, one ``fit_many`` pass updating all
    Holt-Winters states together, one matrix forecast.  The scalar
    rendition is kept as :func:`predicted_demand_for_day_reference`.
    """
    history_slots = history_weeks * 7 * SLOTS_PER_DAY
    start = day * SLOTS_PER_DAY - history_slots
    if start < 0:
        raise ValueError(f"day {day} does not leave {history_weeks} weeks of history")
    items = setup.universe.top(setup.top_n_configs)
    history = setup.demand.counts_matrix(start, history_slots, top_n=setup.top_n_configs)
    keep = np.nonzero(history.max(axis=1) > 0)[0]
    if keep.size == 0:
        return {}
    model = HoltWinters(alpha=0.3, beta=0.01, gamma=0.3)
    predictions = model.fit_many(history[keep].astype(float)).forecast(SLOTS_PER_DAY)
    configs = [items[int(i)].config for i in keep]
    return _table_from_matrix(predictions, configs, reduced)


def predicted_demand_for_day_reference(
    setup: EuropeSetup,
    day: int,
    history_weeks: int = 4,
    reduced: bool = True,
) -> Dict[Tuple[int, CallConfig], float]:
    """Scalar ground truth for :func:`predicted_demand_for_day`.

    Samples each history point per (config, slot), fits one
    Holt-Winters model per config, and regroups per slot — the
    pre-batching pipeline, kept to validate and benchmark the batched
    path against.
    """
    history_slots = history_weeks * 7 * SLOTS_PER_DAY
    start = day * SLOTS_PER_DAY - history_slots
    if start < 0:
        raise ValueError(f"day {day} does not leave {history_weeks} weeks of history")
    raw: Dict[Tuple[int, CallConfig], float] = {}
    for item in setup.universe.top(setup.top_n_configs):
        history = np.asarray(
            [setup.demand.sample_count(item.config, s) for s in range(start, start + history_slots)]
        )
        if history.max() <= 0:
            continue
        prediction = forecast_day(history, horizon=SLOTS_PER_DAY)
        for slot_of_day, value in enumerate(prediction):
            if value > 0:
                key = (slot_of_day, item.config)
                raw[key] = raw.get(key, 0.0) + float(value)
    if not reduced:
        return raw
    table: Dict[Tuple[int, CallConfig], float] = {}
    for slot_of_day in range(SLOTS_PER_DAY):
        slot_counts = {c: v for (t, c), v in raw.items() if t == slot_of_day}
        for config, count in group_by_reduced(slot_counts).items():
            table[(slot_of_day, config)] = count
    return table


# ---------------------------------------------------------------------------
# Plan cache: reusable LP structure for multi-day planning
# ---------------------------------------------------------------------------


class PlanCache:
    """Reusable Titan-Next LP for multi-day / forecast-sweep planning.

    The Fig 13 LP's constraint *structure* (columns, the C1/C2/C3/C5
    coefficient matrix, the C4 latency row) depends only on the config
    universe, the scenario, and the slot grid — day to day, only the C1
    demand counts and the C4 bound change, and both live purely in the
    right-hand side.  The cache builds the column structure and the
    assembled HiGHS matrices once, then re-solves each day after an
    O(rows) RHS refresh — which is what makes week-long oracle sweeps
    (Fig 14/18) and forecast sweeps affordable at production scale.

    Days whose demand covers only a subset of the cached configs are
    fine: C1 pins the missing columns to zero.  ``single_dc_per_config``
    is rejected because its pinning depends on the demand itself.

    **Concurrency contract.** One cache owns one persistent HiGHS
    session, and a solve is a mutate-RHS-then-run critical section, so
    :meth:`solve_day` serializes callers behind an internal lock:
    concurrent calls are safe (each sees a consistent RHS and its own
    result — RHS uniquely determines the optimum through the tie-break
    perturbation) but never parallel.  To overlap planning with other
    work, run the cache on a single dedicated thread (the pipelined
    sweep mode) or fan out across *separate* caches (the decomposed
    planner's per-slot subproblems).
    """

    def __init__(
        self,
        scenario: Scenario,
        configs: Sequence[CallConfig],
        slots: Optional[Sequence[int]] = None,
        options: Optional[JointLpOptions] = None,
        reuse_basis: bool = False,
    ) -> None:
        self.options = options if options is not None else JointLpOptions()
        if self.options.objective != "sum_of_peaks":
            raise ValueError("PlanCache supports the sum-of-peaks (Titan-Next) objective only")
        if self.options.single_dc_per_config:
            raise ValueError("PlanCache cannot cache demand-dependent single-DC pinning")
        self.scenario = scenario
        slot_list = list(slots) if slots is not None else list(range(scenario.slots_per_day))
        placeholder = {(t, c): 1.0 for t in slot_list for c in configs}
        builder = JointAssignmentLp(scenario, placeholder, self.options)
        self._lp, self._artifacts = builder._build()
        self._group_index = {key: g for g, key in enumerate(self._artifacts.groups)}
        from ..solver.scipy_backend import PreparedHighs

        # reuse_basis keeps the model hot inside a persistent HiGHS
        # instance: each solve_day hot-starts from the previous day's
        # optimal basis instead of re-solving from scratch.
        self._prepared = PreparedHighs(self._lp, reuse_basis=reuse_basis)
        self._lock = threading.RLock()
        self.solves = 0
        # Build-time capacity RHS, the baseline refresh_capacity_rhs
        # scales: C2 compute caps and C3 Internet caps as of the
        # capacity book / compute calibration the cache was built from.
        self._base_c2_rhs = (
            self._artifacts.c2_block.rhs.copy() if self._artifacts.c2_block is not None else None
        )
        self._base_c3_rhs = (
            self._artifacts.c3_block.rhs.copy() if self._artifacts.c3_block is not None else None
        )

    def __getstate__(self):
        raise TypeError(
            "PlanCache holds a lock and a live solver session and cannot cross a "
            "process boundary; sweep workers build their own per-slot caches "
            "(see repro.core.sweep._WorkerState.slot_planner)"
        )

    @property
    def num_variables(self) -> int:
        return self._lp.num_variables

    @property
    def num_constraints(self) -> int:
        return self._lp.num_constraints

    def demand_counts(self, demand: Mapping[Tuple[int, CallConfig], float]) -> np.ndarray:
        """Per-C1-group call counts for one day's demand table."""
        counts = np.zeros(len(self._artifacts.groups))
        for key, value in demand.items():
            if value <= 0:
                continue
            group = self._group_index.get(key)
            if group is None:
                raise KeyError(
                    f"demand key {key} is outside the cached structure; "
                    "rebuild the PlanCache with a covering config/slot set"
                )
            counts[group] += value
        return counts

    def refresh_capacity_rhs(
        self,
        internet_factor=None,
        compute_factor=None,
    ) -> None:
        """Rewrite the C2/C3 capacity right-hand sides in place.

        ``compute_factor(slot, dc_code)`` and ``internet_factor(slot,
        country_code, dc_code)`` return a multiplier on the *build-time*
        capacity of that row (``country_code`` is ``None`` for per-DC C3
        rows); ``None`` restores that family's baseline.  Capacity is
        world state, not per-day input, so — unlike the C1/C4 demand
        refresh — the installed values persist across solves until the
        next call.  The persistent HiGHS session picks the new bounds up
        on its next solve (row bounds are diffed from the live blocks),
        keeping the basis hot: an outage or a cut is an RHS-only edit,
        structurally identical to a demand change.

        Factors can only shrink what the built structure can express:
        pairs with zero build-time Internet capacity have no Internet
        columns, so a factor > 1 on them has nothing to enable.
        """
        with self._lock:
            artifacts = self._artifacts
            if artifacts.c2_block is not None:
                rhs = self._base_c2_rhs.copy()
                if compute_factor is not None:
                    for i in range(rhs.size):
                        rhs[i] *= compute_factor(
                            int(artifacts.c2_slot[i]),
                            artifacts.dc_codes[int(artifacts.c2_dc[i])],
                        )
                artifacts.c2_block.rhs[:] = rhs
            if artifacts.c3_block is not None:
                country_codes = self.scenario.country_codes
                rhs = self._base_c3_rhs.copy()
                if internet_factor is not None:
                    for i in range(rhs.size):
                        ci = int(artifacts.c3_country[i])
                        rhs[i] *= internet_factor(
                            int(artifacts.c3_slot[i]),
                            country_codes[ci] if ci >= 0 else None,
                            artifacts.dc_codes[int(artifacts.c3_dc[i])],
                        )
                artifacts.c3_block.rhs[:] = rhs

    def _solve_with_rhs(self, counts: np.ndarray, bound: float, solve) -> JointLpResult:
        """Install a day's RHS, run ``solve``, and extract the plan.

        The C1/C4 mutation happens in place on the cached blocks; if
        the solve *raises*, the previous RHS is restored so the cache
        (and its persistent session's sent-bounds bookkeeping) never
        ends up describing a day it did not solve.  A solve that merely
        returns a non-optimal status leaves the RHS as installed — the
        next ``solve_day`` overwrites both blocks wholesale.
        """
        with self._lock:
            saved_c1 = self._artifacts.c1_block.rhs.copy()
            saved_c4 = float(self._artifacts.c4_block.rhs[0])
            self._artifacts.c1_block.rhs[:] = counts
            self._artifacts.c4_block.rhs[0] = bound * counts.sum()
            self.solves += 1
            try:
                solution = solve()
            except BaseException:
                self._artifacts.c1_block.rhs[:] = saved_c1
                self._artifacts.c4_block.rhs[0] = saved_c4
                raise
            return extract_result(solution, self._artifacts)

    def solve_day(
        self,
        demand: Mapping[Tuple[int, CallConfig], float],
        e2e_bound_ms: Optional[float] = None,
    ) -> JointLpResult:
        """Solve one day's plan by refreshing the RHS and re-solving."""
        counts = self.demand_counts(demand)
        bound = e2e_bound_ms if e2e_bound_ms is not None else self.options.e2e_bound_ms
        return self._solve_with_rhs(counts, bound, self._prepared.solve)


def plan_cache_for_days(
    setup: EuropeSetup,
    days: Sequence[int],
    options: Optional[JointLpOptions] = None,
) -> Tuple[PlanCache, Dict[int, Dict[Tuple[int, CallConfig], float]]]:
    """A :class:`PlanCache` covering the oracle demand of several days.

    Returns the cache plus the per-day demand tables used to size it.
    """
    demands = {day: oracle_demand_for_day(setup, day) for day in days}
    configs = sorted({c for table in demands.values() for _, c in table}, key=str)
    return PlanCache(setup.scenario, configs, options=options), demands


# ---------------------------------------------------------------------------
# Oracle evaluation (§7)
# ---------------------------------------------------------------------------


def run_oracle_day(
    setup: EuropeSetup,
    day: int,
    policies: Optional[Sequence[str]] = None,
    lp_options: Optional[JointLpOptions] = None,
    plan_cache: Optional[PlanCache] = None,
    demand: Optional[Dict[Tuple[int, CallConfig], float]] = None,
    trace: Optional[CallTable] = None,
    titan_next_assignment: Optional[AssignmentTable] = None,
):
    """Run the §7 oracle comparison for one day.

    Returns ``{policy name: EvaluationResult}``.  When ``plan_cache`` is
    given, Titan-Next re-solves the cached LP structure (RHS refresh
    only) instead of rebuilding the model from scratch;
    ``titan_next_assignment`` goes one step further and supplies the
    already-solved plan (how a :class:`~repro.core.sweep.SweepRunner`
    worker consumes the serial planning phase's optimum).  ``trace``
    lets the oracle run consume the exact call realization of a §8
    controller run: the :class:`CallTable` is aggregated back into the
    per-(slot, reduced config) demand table the policies plan on.

    Scoring runs through the vectorized
    :func:`~repro.analysis.metrics.evaluate_batch` path (the scalar
    ``evaluate_assignment`` reference reproduces it entry for entry).
    """
    from ..analysis.metrics import evaluate_batch

    if demand is None:
        if trace is not None:
            demand = trace.demand_table(reduced=True, slots_per_day=SLOTS_PER_DAY)
        else:
            demand = oracle_demand_for_day(setup, day)
    if lp_options is None:
        lp_options = JointLpOptions(e2e_bound_ms=day_e2e_bound_ms(day))
    registry = {
        "wrr": lambda: WrrPolicy(setup.scenario),
        "titan": lambda: TitanPolicy(setup.scenario),
        "lf": lambda: LocalityFirstPolicy(setup.scenario),
        "lf-e2e": lambda: LocalityFirstPolicy(setup.scenario, objective="total_e2e"),
        "titan-next": lambda: TitanNextPolicy(setup.scenario, lp_options),
    }
    chosen = policies if policies is not None else ("wrr", "titan", "lf", "titan-next")
    results = {}
    for name in chosen:
        if name == "titan-next" and titan_next_assignment is not None:
            assignment = titan_next_assignment
        elif name == "titan-next" and plan_cache is not None:
            # Only the (per-day) E2E bound may differ from the cached
            # options — every other field is baked into the cached
            # structure and silently diverging would return plans that
            # violate the caller's request.
            aligned = replace(lp_options, e2e_bound_ms=plan_cache.options.e2e_bound_ms)
            if aligned != plan_cache.options:
                raise ValueError(
                    "lp_options differ from the PlanCache's options in more than "
                    "e2e_bound_ms; rebuild the cache with the desired options"
                )
            solved = plan_cache.solve_day(demand, e2e_bound_ms=lp_options.e2e_bound_ms)
            if not solved.is_optimal:
                raise RuntimeError(f"Titan-Next cached LP failed: {solved.status}")
            assignment = solved.assignment
        else:
            policy = registry[name]()
            assignment = policy.assign(demand)
        results[name] = evaluate_batch(setup.scenario, assignment, name)
    return results


def run_oracle_week(
    setup: EuropeSetup,
    start_day: int = 2,
    days: int = 7,
    policies: Optional[Sequence[str]] = None,
    use_plan_cache: bool = True,
    workers: int = 1,
    backend: Optional[str] = None,
    planner=None,
    shared_memory: Optional[bool] = None,
    chunk_days: Optional[int] = None,
):
    """The Fig 14 experiment: one week, all policies, per-day results.

    ``start_day=2`` makes the week start on Wednesday like Fig 14.
    With ``use_plan_cache`` (the default) the Titan-Next LP structure is
    built once for the whole week and only its RHS changes per day.
    ``workers`` fans the per-day baseline assignment + scoring over a
    :class:`~repro.core.sweep.SweepRunner` pool; ``planner`` picks the
    planning backend/orchestration (see :mod:`repro.core.planner`);
    ``shared_memory`` maps worker state zero-copy and ``chunk_days``
    bounds in-flight days.  Results are identical for any worker
    count, planner spec, backend, and chunk size.
    """
    from .sweep import SweepRunner

    runner = SweepRunner(
        setup, workers=workers, backend=backend, planner=planner, shared_memory=shared_memory
    )
    return runner.run_oracle_days(
        range(start_day, start_day + days),
        policies=policies,
        use_plan_cache=use_plan_cache,
        chunk_days=chunk_days,
    )


# ---------------------------------------------------------------------------
# Prediction-based evaluation (§8)
# ---------------------------------------------------------------------------


@dataclass
class PredictionDayResult:
    """Outcome of one §8 prediction-mode day for one controller.

    ``assignments`` is either a scalar list of
    :class:`CallAssignment` or an :class:`AssignmentBatch` (the batch
    controllers' structure-of-arrays output); both iterate as
    :class:`CallAssignment` views.  ``evaluation`` holds the §7.1
    score when it was computed where the result was produced (a
    ``SweepRunner(evaluate=True)`` worker scores in-pool, against the
    sweep setup's scenario, so the metric work parallelizes too);
    consumers that want the pooled score read it directly —
    :meth:`evaluate` always re-scores against the scenario it is
    given, so scoring a *modified* scenario (the ablation pattern)
    can never silently return a stale result.
    """

    policy: str
    assignments: "List[CallAssignment] | AssignmentBatch"
    stats: Optional[ControllerStats] = None
    evaluation: Optional[object] = None

    def realized_table(self, slots_per_day: int = SLOTS_PER_DAY) -> AssignmentTable:
        if isinstance(self.assignments, AssignmentBatch):
            from ..analysis.metrics import realized_assignment_table

            return realized_assignment_table(self.assignments, slots_per_day)
        table: AssignmentTable = {}
        for a in self.assignments:
            key = (a.call.start_slot % slots_per_day, a.call.config, a.final_dc, a.final_option)
            table[key] = table.get(key, 0.0) + 1.0
        return table

    def evaluate(self, scenario: Scenario, slots_per_day: int = SLOTS_PER_DAY):
        """Score this day through the vectorized evaluation path.

        An :class:`AssignmentBatch` is scored straight off its parallel
        arrays (no dict-table round trip); a scalar assignment list
        falls back to its realized table.  Returns an
        :class:`~repro.analysis.metrics.EvaluationResult`.

        Always recomputes against the given ``scenario`` — a pooled
        :attr:`evaluation` (scored against the sweep setup's own
        scenario) is deliberately *not* returned here; read the
        attribute when that is what you want.
        """
        from ..analysis.metrics import evaluate_batch

        if isinstance(self.assignments, AssignmentBatch):
            return evaluate_batch(
                scenario, self.assignments, self.policy, slots_per_day=slots_per_day
            )
        return evaluate_batch(scenario, self.realized_table(slots_per_day), self.policy)


def _baseline_controller(setup: EuropeSetup, name: str, seed: int):
    """The first-joiner baseline controllers, with their pinned seeds."""
    if name == "wrr":
        return FirstJoinerWrr(setup.scenario, seed=seed + 2)
    if name == "lf":
        return FirstJoinerLf(setup.scenario)
    if name == "titan":
        return FirstJoinerTitan(setup.scenario, seed=seed + 3)
    raise KeyError(f"unknown prediction-mode policy {name!r}")


def _prediction_day_result(
    setup: EuropeSetup,
    name: str,
    table: CallTable,
    seed: int,
    reduced: bool,
    plan_assignment: Optional[AssignmentTable] = None,
) -> PredictionDayResult:
    """One policy's §8 day off an already-synthesized trace.

    The single per-(day, policy) unit of replay work — shared by
    :func:`run_prediction_day` and the :class:`~repro.core.sweep`
    workers, which is what keeps the fan-out byte-identical to the
    serial loop.
    """
    if name == "titan-next":
        if plan_assignment is None:
            raise ValueError("titan-next replay needs the solved plan assignment")
        plan = OfflinePlan.from_assignment(plan_assignment)
        controller = TitanNextController(
            setup.scenario, plan, seed=seed + 1, reduce_configs=reduced
        )
        return PredictionDayResult("titan-next", controller.process_table(table), controller.stats)
    controller = _baseline_controller(setup, name, seed)
    return PredictionDayResult(name, controller.process_table(table), controller.stats)


def run_prediction_day(
    setup: EuropeSetup,
    day: int,
    history_weeks: int = 4,
    policies: Optional[Sequence[str]] = None,
    lp_options: Optional[JointLpOptions] = None,
    reduced: bool = True,
    seed: int = 71,
    trace: Optional[CallTable] = None,
) -> Dict[str, PredictionDayResult]:
    """The §8 experiment for one day.

    Titan-Next plans on Holt-Winters forecasts and assigns per call via
    the online controller; WRR / LF / Titan assign per call from the
    first joiner's country.  ``reduced=False`` feeds raw call configs to
    the LP (the Table 4 ablation, which inflates migrations).

    The day's trace is synthesized once as a :class:`CallTable` and
    every controller consumes it through its batch ``process_table``
    path (identical, call for call, to the scalar loops); ``trace``
    lets callers that already hold the day's table (e.g. the two
    :func:`migration_comparison` arms, which share one seed) skip the
    synthesis entirely.
    """
    if lp_options is None:
        lp_options = JointLpOptions(e2e_bound_ms=day_e2e_bound_ms(day))
    chosen = policies if policies is not None else ("wrr", "lf", "titan", "titan-next")

    if trace is None:
        generator = TraceGenerator(setup.demand, top_n_configs=setup.top_n_configs, seed=seed)
        trace = generator.table_for_day(day)

    results: Dict[str, PredictionDayResult] = {}
    for name in chosen:
        plan_assignment: Optional[AssignmentTable] = None
        if name == "titan-next":
            predicted = predicted_demand_for_day(setup, day, history_weeks, reduced=reduced)
            lp = JointAssignmentLp(setup.scenario, predicted, lp_options)
            solved = lp.solve()
            if not solved.is_optimal:
                raise RuntimeError(f"Titan-Next planning LP failed: {solved.status}")
            plan_assignment = solved.assignment
        results[name] = _prediction_day_result(
            setup, name, trace, seed, reduced, plan_assignment=plan_assignment
        )
    return results


def run_prediction_sweep(
    setup: EuropeSetup,
    days: Sequence[int],
    history_weeks: int = 4,
    lp_options: Optional[JointLpOptions] = None,
    reduced: bool = True,
    seed: int = 71,
    workers: int = 1,
    backend: Optional[str] = None,
    planner=None,
    shared_memory: Optional[bool] = None,
    chunk_days: Optional[int] = None,
    return_tables: Optional[bool] = None,
) -> Dict[int, PredictionDayResult]:
    """The §8 Titan-Next pipeline over a run of days, with one cached LP.

    Per-day output is identical to the ``titan-next`` entry of
    :func:`run_prediction_day` (same forecasts, same plan optimum, same
    controller stream), but the planning cost is amortized: the
    forecast LP structure is built once over the union of predicted
    configs, each day only refreshes the C1/C4 right-hand side, and the
    solver hot-starts from the previous day's optimal basis
    (``PlanCache(reuse_basis=True)``).  When ``lp_options`` is omitted
    each day gets the §7.5 weekday/weekend E2E bound.

    ``workers`` fans the per-day forecast and replay phases over a
    :class:`~repro.core.sweep.SweepRunner` pool; ``planner`` picks the
    planning backend/orchestration (monolithic / decomposed /
    pipelined — see :mod:`repro.core.planner`).  The output is
    byte-identical for every worker count and for every monolithic
    spec; decomposed specs reproduce the same plans to solver
    precision.

    ``shared_memory=True`` maps worker state zero-copy through one
    shm segment and (by default) ships compact
    :class:`~repro.core.sweep.DaySummary` results; ``chunk_days``
    bounds how many days are planned and in flight at once;
    ``return_tables`` overrides the result mode — none of the three
    changes any result byte.
    """
    from .sweep import SweepRunner

    runner = SweepRunner(
        setup, workers=workers, backend=backend, planner=planner, shared_memory=shared_memory
    )
    return runner.run_prediction_sweep(
        days,
        history_weeks=history_weeks,
        lp_options=lp_options,
        reduced=reduced,
        seed=seed,
        chunk_days=chunk_days,
        return_tables=return_tables,
    )


def run_prediction_window(
    setup: EuropeSetup,
    days: Sequence[int],
    policies: Optional[Sequence[str]] = None,
    history_weeks: int = 4,
    lp_options: Optional[JointLpOptions] = None,
    reduced: bool = True,
    seed: int = 71,
    workers: int = 1,
    backend: Optional[str] = None,
    planner=None,
    evaluate: bool = False,
    shared_memory: Optional[bool] = None,
    chunk_days: Optional[int] = None,
    return_tables: Optional[bool] = None,
) -> Dict[int, Dict[str, PredictionDayResult]]:
    """All controllers over a multi-day §8 window (Fig 15 over days).

    ``{day: {policy: PredictionDayResult}}``, each entry identical to
    :func:`run_prediction_day` for that day — but Titan-Next planning
    is amortized through one hot-started :class:`PlanCache` and the
    per-day work fans out across ``workers``.  ``planner`` swaps the
    planning backend/orchestration (see :mod:`repro.core.planner`).
    ``evaluate=True`` also scores each result in-pool
    (``PredictionDayResult.evaluation``).  ``shared_memory`` /
    ``chunk_days`` / ``return_tables`` select the zero-copy worker
    state, streaming chunk size, and compact result mode (see
    :class:`~repro.core.sweep.SweepRunner`) without changing any
    result byte.
    """
    from .sweep import SweepRunner

    runner = SweepRunner(
        setup, workers=workers, backend=backend, planner=planner, shared_memory=shared_memory
    )
    return runner.run_prediction_window(
        days,
        policies=policies,
        history_weeks=history_weeks,
        lp_options=lp_options,
        reduced=reduced,
        seed=seed,
        evaluate=evaluate,
        chunk_days=chunk_days,
        return_tables=return_tables,
    )


def migration_comparison(
    setup: EuropeSetup,
    day: int,
    history_weeks: int = 4,
    seed: int = 73,
) -> Dict[str, Dict[str, float]]:
    """Table 4: migration behaviour with vs without reduced call configs.

    Returns, per arm (``"reduced"`` / ``"raw"``), the inter-DC
    migration rate the paper reports plus the cheap routing-option
    migration rate and the fraction of calls the plan could not place
    (the §6.4 surge path).

    Both arms run on the same seed, hence the same call realization —
    the day's trace is synthesized once and shared between them.
    """
    generator = TraceGenerator(setup.demand, top_n_configs=setup.top_n_configs, seed=seed)
    table = generator.table_for_day(day)
    rates: Dict[str, Dict[str, float]] = {}
    for label, reduced in (("reduced", True), ("raw", False)):
        result = run_prediction_day(
            setup,
            day,
            history_weeks,
            policies=("titan-next",),
            reduced=reduced,
            seed=seed,
            trace=table,
        )["titan-next"]
        assert result.stats is not None
        rates[label] = {
            "dc_migration_rate": result.stats.dc_migration_rate,
            "option_migration_rate": result.stats.option_migration_rate,
            "unplanned_rate": result.stats.unplanned_rate,
        }
    return rates
