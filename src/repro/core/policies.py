"""Assignment policies: WRR, Locality-First, Titan, Titan-Next (§7.2).

All policies consume the same oracle demand table — ``{(timeslot,
reduced config): call count}`` — and emit the same
:data:`~repro.core.lp.AssignmentTable`, so a single evaluator
(:mod:`repro.analysis.metrics`) scores them all identically:

* **WRR** — weighted round robin: buckets per (DC, routing option);
  a DC's weight is its compute share, split between Internet and WAN by
  the config's Internet fraction (minimum across its countries);
* **LF** — locality first: an LP minimizing total latency, solved
  exactly per slot on one hot-started HiGHS session per day;
* **Titan** — weighted-random DC by compute share, then random routing
  per the per-pair fractions Titan measured;
* **Titan-Next** — the Fig 13 joint LP minimizing sum-of-peaks.

Every ``assign`` first runs one shared demand check: a NaN, infinite or
negative count, or a scenario with zero total compute, raises
``ValueError`` instead of failing differently inside each policy.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..net.latency import INTERNET, WAN
from ..solver.scipy_backend import PreparedHighs
from ..workload.configs import CallConfig
from .lp import AssignmentTable, JointAssignmentLp, JointLpOptions, extract_result
from .scenario import Scenario

DemandTable = Mapping[Tuple[int, CallConfig], float]


def check_demand(scenario: Scenario, demand: DemandTable) -> None:
    """Reject demand no policy can place, with a typed error.

    Raises ``ValueError`` naming the offending ``(slot, config)`` key
    for a NaN, infinite or negative count, and when the scenario's
    total compute capacity is zero (no DC can host any call).
    """
    for key, count in demand.items():
        if not math.isfinite(count) or count < 0:
            raise ValueError(f"demand count for {key} must be finite and >= 0, got {count}")
    if sum(scenario.compute_caps[dc] for dc in scenario.dc_codes) <= 0:
        raise ValueError("total compute capacity of the scenario's DCs is zero")


def _bucket_weights(scenario: Scenario, config: CallConfig) -> Dict[Tuple[str, str], float]:
    """(DC, option) bucket weights for WRR / Titan (§7.2 example)."""
    weights: Dict[Tuple[str, str], float] = {}
    total_cores = sum(scenario.compute_caps[dc] for dc in scenario.dc_codes)
    for dc in scenario.dc_codes:
        share = scenario.compute_caps[dc] / total_cores
        fraction = scenario.config_internet_fraction(config, dc)
        weights[(dc, INTERNET)] = share * fraction
        weights[(dc, WAN)] = share * (1.0 - fraction)
    return weights


class WrrPolicy:
    """Weighted Round Robin: deterministic proportional split."""

    name = "wrr"

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario

    def assign(self, demand: DemandTable) -> AssignmentTable:
        check_demand(self.scenario, demand)
        # Bucket weights are per config; capacity is read once per call.
        buckets: Dict[CallConfig, Tuple[List[Tuple[str, str, float]], float]] = {}
        assignment: AssignmentTable = {}
        for (t, config), count in demand.items():
            if count <= 0:
                continue
            if config not in buckets:
                weights = _bucket_weights(self.scenario, config)
                positive = [(dc, option, w) for (dc, option), w in weights.items() if w > 0]
                buckets[config] = (positive, sum(weights.values()))
            positive, total = buckets[config]
            for dc, option, weight in positive:
                assignment[(t, config, dc, option)] = count * weight / total
        return assignment


class TitanPolicy:
    """Titan's production policy: weighted-random DC, random routing.

    "Titan selects MP DC through weighted random policy where weights
    are set in proportion to the number of cores in MP DCs.  It then
    randomly selects calls ... based on the capacity calculated in §4."
    """

    name = "titan"

    def __init__(self, scenario: Scenario, seed: int = 47) -> None:
        self.scenario = scenario
        self.seed = seed

    def assign(self, demand: DemandTable) -> AssignmentTable:
        scenario = self.scenario
        check_demand(scenario, demand)
        rng = np.random.default_rng(self.seed)
        total_cores = sum(scenario.compute_caps[dc] for dc in scenario.dc_codes)
        dc_probs = np.array([scenario.compute_caps[dc] / total_cores for dc in scenario.dc_codes])
        names = {config: str(config) for _, config in demand}
        fractions: Dict[CallConfig, List[float]] = {}
        assignment: AssignmentTable = {}
        ordered = sorted(demand.items(), key=lambda kv: (kv[0][0], names[kv[0][1]]))
        for (t, config), count in ordered:
            n = int(round(count))
            if n <= 0:
                continue
            if config not in fractions:
                fractions[config] = [
                    scenario.config_internet_fraction(config, dc) for dc in scenario.dc_codes
                ]
            dc_counts = rng.multinomial(n, dc_probs)
            for dc, dc_count, fraction in zip(scenario.dc_codes, dc_counts, fractions[config]):
                if dc_count == 0:
                    continue
                internet_count = rng.binomial(dc_count, fraction)
                wan_count = dc_count - internet_count
                if internet_count:
                    key = (t, config, dc, INTERNET)
                    assignment[key] = assignment.get(key, 0.0) + internet_count
                if wan_count:
                    key = (t, config, dc, WAN)
                    assignment[key] = assignment.get(key, 0.0) + wan_count
        return assignment


class LocalityFirstPolicy:
    """LF: LP minimizing total latency (§7.2), solved per slot.

    The LP has no inter-slot coupling (the peak variables belong only
    to the sum-of-peaks objective), so solving slot by slot is exact.
    Each ``assign`` builds one single-slot LP over the day's configs
    and keeps it hot in one HiGHS session: every slot only rewrites the
    C1 demand right-hand side (zero for configs absent from the slot,
    which pins their columns to zero) and re-solves from the previous
    slot's basis.  The session lives and dies inside the call, so any
    day order or worker count reproduces the serial plans.
    """

    name = "lf"

    def __init__(self, scenario: Scenario, objective: str = "total_latency") -> None:
        if objective not in ("total_latency", "total_e2e"):
            raise ValueError("LF objective must be total_latency or total_e2e")
        self.scenario = scenario
        self.objective = objective

    def assign(self, demand: DemandTable) -> AssignmentTable:
        check_demand(self.scenario, demand)
        by_slot: Dict[int, Dict[CallConfig, float]] = {}
        for (t, config), count in demand.items():
            if count > 0:
                by_slot.setdefault(t, {})[config] = count
        if not by_slot:
            return {}
        # One slot's columns over every config of the day; slot 0 is a
        # placeholder, re-keyed to the solved slot below.
        day_configs = {(0, c): 1.0 for slot in by_slot.values() for c in slot}
        options = JointLpOptions(objective=self.objective)
        template = JointAssignmentLp(self.scenario, day_configs, options)
        lp, artifacts = template._build()
        group_of = {config: g for g, (_, config) in enumerate(artifacts.groups)}
        prepared = PreparedHighs(lp, reuse_basis=True)
        c1_rhs = artifacts.c1_block.rhs
        assignment: AssignmentTable = {}
        for t in sorted(by_slot):
            counts = np.zeros(c1_rhs.size)
            for config, count in by_slot[t].items():
                counts[group_of[config]] = count
            saved = c1_rhs.copy()
            c1_rhs[:] = counts
            try:
                solution = prepared.solve()
            except BaseException:
                c1_rhs[:] = saved
                raise
            result = extract_result(solution, artifacts)
            if not result.is_optimal:
                raise RuntimeError(f"LF LP failed at slot {t}: {result.status}")
            for (_, config, dc, option), value in result.assignment.items():
                assignment[(t, config, dc, option)] = value
        return assignment


class TitanNextPolicy:
    """Titan-Next: the Fig 13 joint LP over the whole horizon."""

    name = "titan-next"

    def __init__(self, scenario: Scenario, options: Optional[JointLpOptions] = None) -> None:
        self.scenario = scenario
        self.options = options if options is not None else JointLpOptions()

    def assign(self, demand: DemandTable) -> AssignmentTable:
        check_demand(self.scenario, demand)
        lp = JointAssignmentLp(self.scenario, demand, self.options)
        result = lp.solve()
        if not result.is_optimal:
            raise RuntimeError(f"Titan-Next LP failed: {result.status}")
        return result.assignment
