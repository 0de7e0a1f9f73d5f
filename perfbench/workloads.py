"""The benchmark workloads: their inputs, the timed sweep, and output checks.

Each workload is built from the public sweep API only.  ``build()`` makes the
setup bundle: one fixed world per workload (topology, config universe,
capacity book), so every seed plans the same LP structure and stays feasible.
``run(setup, seed)`` is the timed sweep.  The seed keys every per-call draw
of trace synthesis and replay.  The §7 oracle has no per-call draw, so there
the seed picks which week of the synthetic demand is planned (every demand
draw is keyed on its slot, so another week is another realization of the
same world).  ``verdict`` checks a sweep's outputs outside the timed region
and returns its quality metrics and an output fingerprint; sweeps of one seed
must agree on the fingerprint.

Why these four (see README.md for the measured shares):

* ``europe-replay`` - the §8 window is dominated by per-call controller
  replay; forecast, planning and scoring are each a few percent.
* ``global-oracle`` - the §7 week has no replay or trace synthesis: LP solves
  on the hot-start day chain and the oracle policies dominate.
* ``europe-pooled`` - the only workload through the worker pool and the
  shared-memory arena (spawn, mapping, IPC, in-pool scoring).
* ``europe-stress`` - partial-day replanning rounds, capacity-RHS writes, a
  cold plan cache per campaign, and replay through the surge/fallback path.
"""

from __future__ import annotations

import hashlib
import pickle
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.analysis import evaluate_batch, weighted_percentile
from repro.core import (
    FirstJoinerWrr,
    SweepRunner,
    build_europe_setup,
    oracle_demand_for_day,
    stress,
)
from repro.core.shm import map_payload
from repro.scenarios import build_scenario, calibration
from repro.workload import TraceGenerator
from repro.workload.demand import SLOTS_PER_DAY

#: §8 policies, in the order every window replays them.
WINDOW_POLICIES = ("wrr", "lf", "titan", "titan-next")
#: §7 policies, in the order the oracle sweep scores them.
ORACLE_POLICIES = ("wrr", "titan", "lf", "titan-next")
#: Campaigns whose replanning must never go infeasible.
MUST_STAY_FEASIBLE = ("fiber-cut", "dc-outage")
#: Relative tolerance on fractional (LP) call totals.
CALL_TOTAL_RTOL = 1e-6
#: Oracle seeds cycle through this many weeks of synthetic demand.
WEEKS = 52


@dataclass
class Outcome:
    """What one timed sweep returned."""

    results: Dict[Any, Any]
    runner: Any = None


@dataclass
class Verdict:
    """Checked outputs of one sweep: one operation per (day, policy) or campaign."""

    calls: float
    quality: Dict[str, float]
    fingerprint: str
    attempted: int
    failures: List[str] = field(default_factory=list)


def _digest_evaluation(digest: "hashlib._Hash", evaluation: Any) -> None:
    totals = (float(evaluation.total_calls), float(evaluation.wan_edge_traffic))
    digest.update(repr(totals).encode())
    for array in (evaluation.e2e_values, evaluation.e2e_weights, evaluation.wan.dense):
        digest.update(np.ascontiguousarray(array, dtype=float).tobytes())
    digest.update(repr(sorted(evaluation.internet_loads.items())).encode())


def _e2e_latency(evaluations: Sequence[Any]) -> Dict[str, float]:
    """Call-weighted mean and p95 of E2E latency over the evaluations' rows.

    The latency model gives every (config, DC, option) row one latency and
    many rows share it, so the p95 sits on a plateau and reads the same for
    most inputs; the mean moves with every call weight.
    """
    if not evaluations:
        return {"tn_e2e_mean_ms": 0.0, "tn_e2e_p95_ms": 0.0}
    values = np.concatenate([ev.e2e_values for ev in evaluations])
    weights = np.concatenate([ev.e2e_weights for ev in evaluations])
    return {
        "tn_e2e_mean_ms": float(np.average(values, weights=weights)),
        "tn_e2e_p95_ms": weighted_percentile(values, weights, 95.0),
    }


def _calls_match(got: float, want: float) -> bool:
    return abs(got - want) <= CALL_TOTAL_RTOL * max(1.0, want)


def _day_calls(setup: Any, day: int, multipliers: Any = None) -> int:
    """Calls the day's trace holds: the demand model's sampled counts."""
    counts = setup.demand.counts_matrix(
        day * SLOTS_PER_DAY, SLOTS_PER_DAY, top_n=setup.top_n_configs, multipliers=multipliers
    )
    return int(counts.sum())


@dataclass(frozen=True)
class PredictionWindow:
    """A §8 window through ``SweepRunner.run_prediction_window``."""

    name: str
    daily_calls: float
    top_n_configs: int
    start_day: int
    days: int
    workers: int = 1

    def day_list(self) -> List[int]:
        return list(range(self.start_day, self.start_day + self.days))

    def build(self) -> Any:
        return build_europe_setup(daily_calls=self.daily_calls, top_n_configs=self.top_n_configs)

    def run(self, setup: Any, seed: int) -> Outcome:
        runner = SweepRunner(setup, workers=self.workers, shared_memory=self.workers > 1)
        results = runner.run_prediction_window(
            self.day_list(), policies=WINDOW_POLICIES, seed=seed, evaluate=True
        )
        return Outcome(results, runner)

    def reference(self, setup: Any, seed: int) -> Dict[str, Any]:
        return {"calls": {day: _day_calls(setup, day) for day in self.day_list()}}

    def verdict(self, setup: Any, outcome: Outcome, reference: Dict[str, Any]) -> Verdict:
        digest = hashlib.sha256()
        failures: List[str] = []
        attempted = 0
        calls = 0.0
        sop = {policy: 0.0 for policy in WINDOW_POLICIES}
        placed = {"calls": 0, "unplanned": 0}
        for day, want in reference["calls"].items():
            for policy in WINDOW_POLICIES:
                attempted += 1
                result = outcome.results.get(day, {}).get(policy)
                if result is None or result.evaluation is None:
                    failures.append(f"day {day} {policy}: no scored result")
                    continue
                evaluation, stats = result.evaluation, result.stats
                if stats.calls != want or not _calls_match(evaluation.total_calls, want):
                    failures.append(
                        f"day {day} {policy}: placed {evaluation.total_calls} of {want} calls"
                    )
                calls += evaluation.total_calls
                sop[policy] += evaluation.sum_of_peaks_gbps
                _digest_day_result(digest, day, policy, result)
                if policy == "titan-next":
                    placed["calls"] += stats.calls
                    placed["unplanned"] += stats.unplanned
        tn_evaluations = [
            outcome.results[day]["titan-next"].evaluation
            for day in reference["calls"]
            if outcome.results.get(day, {}).get("titan-next") is not None
        ]
        quality = {
            "wan_peak_savings_vs_wrr": 1.0 - sop["titan-next"] / sop["wrr"] if sop["wrr"] else 0.0,
            "tn_unplanned_rate": placed["unplanned"] / placed["calls"] if placed["calls"] else 0.0,
            "overflow_share": 0.0,
            **_e2e_latency(tn_evaluations),
        }
        return Verdict(calls, quality, digest.hexdigest(), attempted, failures)

    def serial_day_fingerprint(self, setup: Any, seed: int, day: int) -> str:
        """One day of the window through the ``workers=1`` reference path."""
        serial = SweepRunner(setup, workers=1)
        plans = serial.plan_days(serial.forecast_days(self.day_list()))
        results = serial.replay_days(
            [day], plans=plans, policies=WINDOW_POLICIES, seed=seed, evaluate=True
        )
        return day_fingerprint(day, results[day])

    def pool_costs(self, setup: Any, outcome: Outcome) -> Dict[str, float]:
        """Fan-out costs measured around (never inside) a pooled sweep.

        The worker state is rebuilt through ``SweepRunner.worker_pool``
        without submitting work, so no process starts; the segment is then
        mapped in this process the way each worker's initializer maps it.
        """
        if self.workers == 1:
            return {}
        costs: Dict[str, float] = {}
        shipped = [
            len(
                pickle.dumps(
                    (day, {p: r.summary for p, r in outcome.results[day].items()}),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            )
            for day in outcome.results
        ]
        costs["sweep.result_bytes_per_day"] = float(statistics.mean(shipped))
        runner = SweepRunner(setup, workers=self.workers, shared_memory=True)
        with runner.worker_pool(self.days) as handle:
            payload = handle.arena.payload()
            costs["sweep.state_bytes"] = float(len(payload.pickled))
            costs["shm.shared_bytes"] = float(payload.shared_bytes)
            samples = []
            for _ in range(3):
                started = time.perf_counter()
                state, attachment = map_payload(payload)
                samples.append(time.perf_counter() - started)
                del state
                attachment.close()
            costs["shm.map_ms"] = statistics.median(samples) * 1e3
        return costs


def _digest_day_result(digest: "hashlib._Hash", day: int, policy: str, result: Any) -> None:
    digest.update(f"{day}:{policy}:{result.stats!r}".encode())
    _digest_evaluation(digest, result.evaluation)


def day_fingerprint(day: int, results: Dict[str, Any]) -> str:
    """Digest of one day's per-policy stats and scores."""
    digest = hashlib.sha256()
    for policy in WINDOW_POLICIES:
        _digest_day_result(digest, day, policy, results[policy])
    return digest.hexdigest()


@dataclass(frozen=True)
class OracleWeek:
    """A §7 oracle run of days through ``SweepRunner.run_oracle_days``."""

    name: str
    scenario: str
    daily_calls: float
    top_n_configs: int
    start_day: int
    days: int

    def day_list(self, seed: int) -> List[int]:
        """The ``days`` days of the seed's week, from ``start_day``'s weekday."""
        first = self.start_day + 7 * (seed % WEEKS)
        return list(range(first, first + self.days))

    def build(self) -> Any:
        # ``build_scenario`` takes its RTT fit from ``default_rtt_fit``, which
        # keeps one fit per process; dropping it makes every build pay for
        # the fit, as the first build of a process does.
        calibration._FIT_CACHE.clear()
        return build_scenario(
            self.scenario, daily_calls=self.daily_calls, top_n_configs=self.top_n_configs
        )

    def run(self, setup: Any, seed: int) -> Outcome:
        runner = SweepRunner(setup)
        days = self.day_list(seed)
        return Outcome(runner.run_oracle_days(days, policies=ORACLE_POLICIES), runner)

    def reference(self, setup: Any, seed: int) -> Dict[str, Any]:
        return {
            "calls": {
                day: float(sum(oracle_demand_for_day(setup, day).values()))
                for day in self.day_list(seed)
            }
        }

    def verdict(self, setup: Any, outcome: Outcome, reference: Dict[str, Any]) -> Verdict:
        digest = hashlib.sha256()
        failures: List[str] = []
        attempted = 0
        calls = 0.0
        sop_total = {policy: 0.0 for policy in ORACLE_POLICIES}
        for day, want in reference["calls"].items():
            day_results = outcome.results.get(day, {})
            for policy in ORACLE_POLICIES:
                attempted += 1
                evaluation = day_results.get(policy)
                if evaluation is None:
                    failures.append(f"day {day} {policy}: no scored result")
                    continue
                if not _calls_match(evaluation.total_calls, want):
                    failures.append(
                        f"day {day} {policy}: placed {evaluation.total_calls} of {want} calls"
                    )
                calls += evaluation.total_calls
                sop_total[policy] += evaluation.sum_of_peaks_gbps
                digest.update(f"{day}:{policy}".encode())
                _digest_evaluation(digest, evaluation)
            # The Fig 14 shape, checked per day as its own operation.
            attempted += 1
            if all(p in day_results for p in ("wrr", "lf", "titan-next")):
                tn = day_results["titan-next"].sum_of_peaks_gbps
                wrr = day_results["wrr"].sum_of_peaks_gbps
                lf = day_results["lf"].sum_of_peaks_gbps
                if not (tn < wrr and tn <= lf * (1.0 + 1e-9)):
                    failures.append(f"day {day}: Titan-Next SoP {tn} vs WRR {wrr}, LF {lf}")
            else:
                failures.append(f"day {day}: Fig 14 shape needs WRR, LF and Titan-Next")
        tn_evaluations = [
            outcome.results[day]["titan-next"]
            for day in reference["calls"]
            if "titan-next" in outcome.results.get(day, {})
        ]
        wrr = sop_total["wrr"]
        quality = {
            "wan_peak_savings_vs_wrr": 1.0 - sop_total["titan-next"] / wrr if wrr else 0.0,
            "tn_unplanned_rate": 0.0,
            "overflow_share": 0.0,
            **_e2e_latency(tn_evaluations),
        }
        return Verdict(calls, quality, digest.hexdigest(), attempted, failures)


@dataclass(frozen=True)
class StressCampaigns:
    """``stress.run_campaign_day`` for every pinned campaign on one day."""

    name: str
    daily_calls: float
    top_n_configs: int
    day: int
    cadence: int

    def build(self) -> Any:
        return build_europe_setup(daily_calls=self.daily_calls, top_n_configs=self.top_n_configs)

    def run(self, setup: Any, seed: int) -> Outcome:
        results = {
            name: stress.run_campaign_day(
                setup, timeline, self.day, cadence=self.cadence, seed=seed
            )
            for name, timeline in stress.campaign_scenarios(setup).items()
        }
        return Outcome(results)

    def reference(self, setup: Any, seed: int) -> Dict[str, Any]:
        """Per campaign: the stressed day's call count and WRR's sum of peaks.

        WRR replays the same ground-truth stressed trace the campaign
        replays, so the savings metric compares like with like.
        """
        raw_configs = [item.config for item in setup.universe.top(setup.top_n_configs)]
        generator = TraceGenerator(setup.demand, top_n_configs=setup.top_n_configs, seed=seed)
        reference: Dict[str, Any] = {"calls": {}, "wrr_sop": {}}
        for name, timeline in stress.campaign_scenarios(setup).items():
            multipliers = timeline.demand_multipliers(raw_configs, SLOTS_PER_DAY)
            trace = generator.table_for_day(self.day, multipliers=multipliers)
            batch = FirstJoinerWrr(setup.scenario, seed=seed + 2).process_table(trace)
            reference["calls"][name] = len(trace)
            reference["wrr_sop"][name] = evaluate_batch(
                setup.scenario, batch, "wrr-stress"
            ).sum_of_peaks_gbps
        return reference

    def verdict(self, setup: Any, outcome: Outcome, reference: Dict[str, Any]) -> Verdict:
        digest = hashlib.sha256()
        failures: List[str] = []
        attempted = 0
        calls = 0.0
        overflow = 0.0
        unplanned = 0
        tn_sop = wrr_sop = 0.0
        evaluations = []
        for name, want in reference["calls"].items():
            attempted += 1
            result = outcome.results.get(name)
            if result is None or result.evaluation is None:
                failures.append(f"{name}: no scored result")
                continue
            evaluation = result.evaluation
            if result.stats.calls != want or not _calls_match(evaluation.total_calls, want):
                failures.append(f"{name}: placed {evaluation.total_calls} of {want} calls")
            if name in MUST_STAY_FEASIBLE and result.infeasible_rounds:
                failures.append(f"{name}: {result.infeasible_rounds} infeasible replan rounds")
            calls += evaluation.total_calls
            overflow += result.overflow_calls
            unplanned += result.stats.unplanned
            tn_sop += evaluation.sum_of_peaks_gbps
            wrr_sop += reference["wrr_sop"][name]
            evaluations.append(evaluation)
            digest.update(
                f"{name}:{result.stats!r}:{result.infeasible_rounds}:{result.overflow_calls!r}"
                .encode()
            )
            _digest_evaluation(digest, evaluation)
        quality = {
            "wan_peak_savings_vs_wrr": 1.0 - tn_sop / wrr_sop if wrr_sop else 0.0,
            "tn_unplanned_rate": unplanned / calls if calls else 0.0,
            "overflow_share": overflow / calls if calls else 0.0,
            **_e2e_latency(evaluations),
        }
        return Verdict(calls, quality, digest.hexdigest(), attempted, failures)


#: The benchmark's workloads, by name.  Each sweep takes 2-4 s on a 2-CPU
#: box, so a 20 s run measures several and reports their median.
WORKLOADS = {
    w.name: w
    for w in (
        PredictionWindow("europe-replay", 150_000.0, 60, start_day=30, days=2),
        OracleWeek("global-oracle", "global", 20_000.0, 60, start_day=2, days=3),
        PredictionWindow("europe-pooled", 150_000.0, 60, start_day=30, days=4, workers=2),
        StressCampaigns("europe-stress", 20_000.0, 60, day=30, cadence=8),
    )
}

#: The same code paths at smoke size, for warm-up and self-tests.  The
#: oracle keeps its full-size world for one day: smaller global scenarios
#: leave some days' plans infeasible under the 75 ms E2E bound.
SMOKE_WORKLOADS = {
    w.name: w
    for w in (
        PredictionWindow("europe-replay", 4_000.0, 20, start_day=30, days=2),
        OracleWeek("global-oracle", "global", 20_000.0, 60, start_day=2, days=1),
        PredictionWindow("europe-pooled", 4_000.0, 20, start_day=30, days=2, workers=2),
        StressCampaigns("europe-stress", 4_000.0, 30, day=30, cadence=24),
    )
}
