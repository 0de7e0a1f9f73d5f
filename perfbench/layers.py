"""Which program calls are timed, and the per-layer metrics derived from them.

Every target is a public call into one module of ``repro``; its span name
starts with the layer the call belongs to.  Layers follow the modules:
``sweep`` (``core.sweep``), ``forecast``, ``planner`` (the cached Fig 13 LP),
``replanner``, ``workload`` (demand and trace synthesis), ``controller``,
``policies``, ``metrics``, ``stress`` and ``shm``.

Spans are recorded in the benchmark process only.  Work a pooled sweep runs
inside its workers (forecast, replay, scoring) is not visible from here and
reads 0 on ``europe-pooled``; the parent's wait for it is ``sweep.gather``.

Wall-clock no layer covers is the self time of the benchmark's root span and
of the workload's entry call (:data:`ENTRIES`): code the entry call runs
outside every wrapped call lands there, not in a layer.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence

from repro.analysis import metrics
from repro.core import controller, policies, replanner, shm, stress, sweep, titan_next
from repro.workload import demand, traces

from .spans import Span, Target, self_seconds

#: Controller classes by the policy name their spans carry.
CONTROLLERS = {
    "wrr": controller.FirstJoinerWrr,
    "lf": controller.FirstJoinerLf,
    "titan": controller.FirstJoinerTitan,
    "titan-next": controller.TitanNextController,
}
#: Oracle policy classes by the policy name their spans carry.
POLICIES = {
    "wrr": policies.WrrPolicy,
    "titan": policies.TitanPolicy,
    "lf": policies.LocalityFirstPolicy,
}
#: Every layer a span can belong to, in report order.
LAYERS = (
    "sweep",
    "forecast",
    "planner",
    "replanner",
    "workload",
    "controller",
    "policies",
    "metrics",
    "stress",
    "shm",
)
#: The benchmark's own root span around one sweep.
ROOT = "run"
#: Each workload's entry call, the one span directly under :data:`ROOT`.
ENTRIES = ("sweep.window", "sweep.oracle_days", "stress.campaign_day")


def _table_calls(result: Any, args: tuple, kwargs: dict) -> Dict[str, Any]:
    return {"calls": len(args[1])}


def _generated_calls(result: Any, args: tuple, kwargs: dict) -> Dict[str, Any]:
    return {"calls": len(result)}


def _lp_shape(result: Any, args: tuple, kwargs: dict) -> Dict[str, Any]:
    cache = args[0]
    return {"cols": cache.num_variables, "rows": cache.num_constraints}


def _feasible(result: Any, args: tuple, kwargs: dict) -> Dict[str, Any]:
    return {"solved": bool(result)}


def targets() -> List[Target]:
    """The program calls the traced run wraps."""
    found = [
        Target(sweep.SweepRunner, "run_prediction_window", "sweep.window"),
        Target(sweep.SweepRunner, "run_oracle_days", "sweep.oracle_days"),
        Target(sweep.SweepRunner, "forecast_days", "sweep.forecast_days"),
        Target(sweep.SweepRunner, "replay_days", "sweep.replay_days"),
        Target(sweep.SweepRunner, "worker_pool", "sweep.pool_open", context=True),
        Target(sweep._PoolHandle, "submit", "sweep.submit"),
        Target(sweep.SweepRunner, "_gather", "sweep.gather"),
        Target(titan_next, "run_oracle_day", "sweep.oracle_day"),
        Target(titan_next, "predicted_demand_for_day", "forecast.predict_day"),
        Target(titan_next, "oracle_demand_for_day", "workload.oracle_demand"),
        Target(titan_next.PlanCache, "__init__", "planner.build", note=_lp_shape),
        Target(titan_next.PlanCache, "solve_day", "planner.solve"),
        Target(titan_next.PlanCache, "refresh_capacity_rhs", "planner.rhs_refresh"),
        Target(replanner.RollingPlanner, "replan", "replanner.replan", note=_feasible),
        Target(traces.TraceGenerator, "table_for_day", "workload.trace", note=_generated_calls),
        Target(demand.DemandModel, "expected_matrix", "workload.expected_matrix"),
        Target(metrics, "evaluate_batch", "metrics.evaluate"),
        Target(stress, "run_campaign_day", "stress.campaign_day"),
        Target(stress, "quota_overflow", "stress.quota_overflow"),
        Target(stress.StressTimeline, "demand_multipliers", "stress.demand_multipliers"),
        Target(stress.StressTimeline, "capacity_factor_fns", "stress.capacity_factors"),
        Target(stress.StressTimeline, "fold_into_book", "stress.fold_into_book"),
        Target(shm.ShmArena, "__init__", "shm.arena"),
    ]
    found += [
        Target(cls, "process_table", f"controller.{name}", note=_table_calls)
        for name, cls in CONTROLLERS.items()
    ]
    found += [Target(cls, "assign", f"policies.{name}") for name, cls in POLICIES.items()]
    return found


def _named(spans: Sequence[Span], name: str) -> List[Span]:
    return [s for s in spans if s.name == name]


def _total(spans: Sequence[Span]) -> float:
    return sum(s.seconds for s in spans)


def _attr_total(spans: Sequence[Span], key: str) -> float:
    return float(sum((s.attrs or {}).get(key, 0) for s in spans))


def _median_ms(spans: Sequence[Span]) -> float:
    return statistics.median(s.seconds for s in spans) * 1e3 if spans else 0.0


def layer_metrics(spans: Sequence[Span], days: int) -> Dict[str, float]:
    """Per-layer metrics of one traced sweep, from its spans alone.

    ``days`` is the number of simulated days (campaigns count one day
    each), the denominator of every ``*_per_day`` metric.
    """
    out: Dict[str, float] = {}
    for name in CONTROLLERS:
        timed = _named(spans, f"controller.{name}")
        busy, calls = _total(timed), _attr_total(timed, "calls")
        out[f"controller.{name}.busy_s"] = busy
        out[f"controller.{name}.us_per_call"] = busy / calls * 1e6 if calls else 0.0

    builds = _named(spans, "planner.build")
    solves = _named(spans, "planner.solve")
    refreshes = _named(spans, "planner.rhs_refresh")
    out["planner.build_s"] = _total(builds)
    out["planner.first_solve_ms"] = solves[0].seconds * 1e3 if solves else 0.0
    out["planner.solve_ms_p50"] = _median_ms(solves)
    out["planner.solves"] = float(len(solves))
    out["planner.lp_cols"] = float(max(((s.attrs or {}).get("cols", 0) for s in builds), default=0))
    out["planner.lp_rows"] = float(max(((s.attrs or {}).get("rows", 0) for s in builds), default=0))
    out["planner.rhs_refresh_ms"] = _total(refreshes) / len(refreshes) * 1e3 if refreshes else 0.0

    rounds = _named(spans, "replanner.replan")
    out["replanner.round_ms_p50"] = _median_ms(rounds)
    out["replanner.rounds"] = float(len(rounds))
    out["replanner.infeasible_rounds"] = float(
        sum(1 for s in rounds if not (s.attrs or {}).get("solved", True))
    )

    for name in POLICIES:
        out[f"policies.{name}.ms_per_day"] = _total(_named(spans, f"policies.{name}")) / days * 1e3

    traced = _named(spans, "workload.trace")
    generated = _attr_total(traced, "calls")
    out["workload.trace_us_per_call"] = _total(traced) / generated * 1e6 if generated else 0.0
    out["forecast.ms_per_day"] = _total(_named(spans, "forecast.predict_day")) / days * 1e3
    out["metrics.evaluate_ms_per_day"] = _total(_named(spans, "metrics.evaluate")) / days * 1e3

    submits = _named(spans, "sweep.submit")
    opened = _named(spans, "sweep.pool_open")
    pooled = bool(submits)
    # A fork-started executor launches its workers inside the first submit.
    out["sweep.pool_open_s"] = _total(opened) + submits[0].seconds if pooled else 0.0
    out["sweep.parent_plan_s"] = _total(builds) + _total(solves)

    self_time = {layer: 0.0 for layer in LAYERS}
    uncovered = 0.0
    for span, seconds in zip(spans, self_seconds(spans)):
        if span.name == ROOT or span.name in ENTRIES:
            uncovered += seconds
        else:
            self_time[span.layer] += seconds
    for layer in LAYERS:
        out[f"self_s.{layer}"] = self_time[layer]
    wall = _total(_named(spans, ROOT))
    out["trace.traced_wall_s"] = wall
    out["trace.uncovered_s"] = uncovered
    out["trace.uncovered_share"] = out["trace.uncovered_s"] / wall if wall else 0.0
    return out
