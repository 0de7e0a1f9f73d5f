"""Measure one workload: untimed checks around timed, closed-loop sweeps.

One run is a closed loop: one sweep after another in this process, each on a
freshly built setup, until the time budget is spent.  An untraced run
(``trace=False``) reports the end-to-end metrics as medians over its sweeps.
A traced run alternates untraced and traced sweeps and reports the per-layer
metrics as medians over the traced ones; the traced outputs must equal the
untraced ones, and the gap between their wall-clocks is the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np
import scipy

from repro.core import available_workers

from . import THREAD_VARS, layers
from .spans import Recorder, chrome_trace
from .workloads import day_fingerprint

#: End-to-end metrics (untraced runs) and their units.
END_TO_END = {
    "setup_s": "s",
    "calls_per_s": "calls/s",
    "peak_rss_mb": "MB",
    "wan_peak_savings_vs_wrr": "fraction",
    "tn_e2e_mean_ms": "ms",
}


def _per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for name in layers.CONTROLLERS:
        units[f"controller.{name}.us_per_call"] = "us"
        units[f"controller.{name}.busy_s"] = "s"
    units["controller.titan-next.unplanned_rate"] = "fraction"
    units["metrics.tn_e2e_p95_ms"] = "ms"
    units.update(
        {
            "planner.build_s": "s",
            "planner.first_solve_ms": "ms",
            "planner.solve_ms_p50": "ms",
            "planner.solves": "count",
            "planner.lp_cols": "count",
            "planner.lp_rows": "count",
            "planner.rhs_refresh_ms": "ms",
            "replanner.round_ms_p50": "ms",
            "replanner.rounds": "count",
            "replanner.infeasible_rounds": "count",
            "stress.overflow_share": "fraction",
        }
    )
    for name in layers.POLICIES:
        units[f"policies.{name}.ms_per_day"] = "ms"
    units.update(
        {
            "workload.trace_us_per_call": "us",
            "forecast.ms_per_day": "ms",
            "metrics.evaluate_ms_per_day": "ms",
            "sweep.pool_open_s": "s",
            "sweep.state_bytes": "bytes",
            "shm.shared_bytes": "bytes",
            "shm.map_ms": "ms",
            "sweep.result_bytes_per_day": "bytes",
            "sweep.parent_plan_s": "s",
            "sweep.cpu_util": "fraction",
            "sweep.fault_incidents": "count",
            "sweep.worker_peak_rss_mb": "MB",
        }
    )
    for layer in layers.LAYERS:
        units[f"self_s.{layer}"] = "s"
    units.update(
        {
            "trace.traced_wall_s": "s",
            "trace.untraced_wall_s": "s",
            "trace.overhead_s": "s",
            "trace.uncovered_s": "s",
            "trace.uncovered_share": "fraction",
        }
    )
    return units


#: Per-layer metrics (traced runs) and their units.
PER_LAYER = _per_layer_units()

#: Setup builds per sweep of an untraced run; ``setup_s`` is the fastest
#: build of the run.  Builds take milliseconds, shorter than the host's
#: contention phases, so each lands wholly in a fast or a slow phase and their
#: median flips between the two; spreading builds over the run and taking the
#: fastest is steady.
SETUP_BUILDS_PER_SWEEP = 3


@dataclass
class Tally:
    """Operations attempted and the reasons the failed ones failed."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(reason)


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Dict[str, Any]]
    record: Dict[str, Any]
    spans: Optional[Dict[str, Any]] = None

    def line(self) -> Dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


@dataclass
class Sweep:
    """One measured sweep: its setup and sweep wall-clock, and what it produced."""

    setup_s: float
    wall_s: float
    children_cpu_s: float
    outcome: Any
    verdict: Any


def _children_cpu() -> float:
    times = os.times()
    return times.children_user + times.children_system


def _peak_rss_mb(who: int) -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(who).ru_maxrss / 1024.0


def git_commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        return None
    return None


class Harness:
    def __init__(
        self,
        workload: Any,
        seed: int,
        seconds: float,
        warmup: Any = None,
        min_sweeps: int = 3,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.warmup = warmup
        self.min_sweeps = min_sweeps
        self.tally = Tally()
        self._reference: Optional[Dict[str, Any]] = None
        self._fingerprint: Optional[str] = None

    # -- one sweep ---------------------------------------------------------

    def _sweep(self, recorder: Optional[Recorder] = None) -> Optional[Sweep]:
        """Build a setup, run the timed sweep, check its outputs untimed.

        Returns ``None`` when anything raised; that counts one failed operation.
        """
        try:
            setup, setup_s = self._build()
            if self._reference is None:
                self._reference = self.workload.reference(setup, self.seed)
            gc.collect()
            cpu = _children_cpu()
            started = time.perf_counter()
            if recorder is None:
                outcome = self.workload.run(setup, self.seed)
            else:
                with recorder.installed(layers.targets()), recorder.span(layers.ROOT):
                    outcome = self.workload.run(setup, self.seed)
            wall_s = time.perf_counter() - started
            children_cpu_s = _children_cpu() - cpu
            verdict = self.workload.verdict(setup, outcome, self._reference)
        except Exception:
            self.tally.check(False, "sweep raised:\n" + traceback.format_exc())
            return None
        self.tally.attempted += verdict.attempted
        self.tally.failures += verdict.failures
        if self._fingerprint is None:
            self._fingerprint = verdict.fingerprint
        else:
            label = "traced" if recorder is not None else "repeated"
            self.tally.check(
                verdict.fingerprint == self._fingerprint,
                f"{label} sweep outputs differ from the first sweep of seed {self.seed}",
            )
        return Sweep(setup_s, wall_s, children_cpu_s, outcome, verdict)

    def _build(self) -> tuple:
        """One timed setup build; every timed region starts from a collected heap."""
        gc.collect()
        started = time.perf_counter()
        setup = self.workload.build()
        return setup, time.perf_counter() - started

    def _warm(self) -> None:
        """Run the smoke-size workload once so imports and module memos are loaded."""
        if self.warmup is None:
            return
        try:
            self.warmup.run(self.warmup.build(), self.seed)
        except Exception:
            self.tally.check(False, "warm-up sweep raised:\n" + traceback.format_exc())

    def _budget_left(self, started: float, sweeps: List[Sweep], least: int) -> bool:
        """Whether another round fits the budget; ``least`` rounds run while time is left.

        A round is everything the loop does per sweep: builds, sweeps, checks.
        """
        elapsed = time.perf_counter() - started
        if len(sweeps) < least:
            return not sweeps or elapsed < self.seconds
        return elapsed + elapsed / len(sweeps) <= self.seconds

    def _pooled_reference_check(self, last: Sweep) -> None:
        """One day of a pooled window against the ``workers=1`` reference."""
        workload = self.workload
        if getattr(workload, "workers", 1) == 1:
            return
        days = workload.day_list()
        day = days[self.seed % len(days)]
        setup = workload.build()
        try:
            want = workload.serial_day_fingerprint(setup, self.seed, day)
        except Exception:
            self.tally.check(False, "serial reference raised:\n" + traceback.format_exc())
            return
        got = day_fingerprint(day, last.outcome.results[day])
        self.tally.check(got == want, f"pooled day {day} differs from the workers=1 reference")

    # -- runs ----------------------------------------------------------------

    def untraced(self) -> Result:
        self._warm()
        started = time.perf_counter()
        sweeps: List[Sweep] = []
        setups: List[float] = []
        while self._budget_left(started, sweeps, self.min_sweeps):
            if sweeps:
                sweeps[-1].outcome = None
            sweep = self._sweep()
            if sweep is None:
                break
            sweeps.append(sweep)
            setups.append(sweep.setup_s)
            setups += [self._build()[1] for _ in range(SETUP_BUILDS_PER_SWEEP - 1)]
        rss = _peak_rss_mb(resource.RUSAGE_SELF)
        worker_rss = _peak_rss_mb(resource.RUSAGE_CHILDREN)
        if sweeps:
            self._pooled_reference_check(sweeps[-1])
        values = {name: 0.0 for name in END_TO_END}
        if sweeps:
            values["setup_s"] = min(setups)
            values["calls_per_s"] = statistics.median(s.verdict.calls / s.wall_s for s in sweeps)
            pooled = getattr(self.workload, "workers", 1) > 1
            # A pooled sweep's footprint is the parent plus its largest worker.
            values["peak_rss_mb"] = rss + (worker_rss if pooled else 0.0)
            quality = sweeps[0].verdict.quality
            values["wan_peak_savings_vs_wrr"] = quality["wan_peak_savings_vs_wrr"]
            values["tn_e2e_mean_ms"] = quality["tn_e2e_mean_ms"]
        samples = {
            "setup_s": setups,
            "sweep_s": [s.wall_s for s in sweeps],
            "calls": [s.verdict.calls for s in sweeps],
        }
        return self._result(values, END_TO_END, samples, measured=bool(sweeps))

    def traced(self) -> Result:
        self._warm()
        started = time.perf_counter()
        plain: List[Sweep] = []
        traced: List[Sweep] = []
        per_sweep: List[Dict[str, float]] = []
        last_spans = None
        # Per-layer metrics carry no bound, so two traced sweeps suffice.
        while self._budget_left(started, traced, min(self.min_sweeps, 2)):
            if traced:
                traced[-1].outcome = None
            sweep = self._sweep()
            if sweep is None:
                break
            sweep.outcome = None
            plain.append(sweep)
            recorder = Recorder()
            sweep = self._sweep(recorder)
            if sweep is None:
                break
            traced.append(sweep)
            per_sweep.append(self._layer_values(sweep, recorder))
            last_spans = recorder.spans
        values = {name: 0.0 for name in PER_LAYER}
        if per_sweep:
            for name in values:
                values[name] = statistics.median(m.get(name, 0.0) for m in per_sweep)
            untraced_wall = statistics.median(s.wall_s for s in plain)
            values["trace.untraced_wall_s"] = untraced_wall
            values["trace.overhead_s"] = values["trace.traced_wall_s"] - untraced_wall
            values.update(self._pool_costs(traced[-1]))
        samples = {
            "untraced_sweep_s": [s.wall_s for s in plain],
            "traced_sweep_s": [s.wall_s for s in traced],
        }
        result = self._result(values, PER_LAYER, samples, measured=bool(per_sweep))
        if last_spans is not None:
            result.spans = chrome_trace(last_spans)
        return result

    def _layer_values(self, sweep: Sweep, recorder: Recorder) -> Dict[str, float]:
        values = layers.layer_metrics(recorder.spans, days=len(sweep.outcome.results))
        workers = getattr(self.workload, "workers", 1)
        if workers > 1:
            values["sweep.cpu_util"] = sweep.children_cpu_s / (sweep.wall_s * workers)
            values["sweep.worker_peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_CHILDREN)
        runner = sweep.outcome.runner
        values["sweep.fault_incidents"] = float(len(runner.fault_log)) if runner else 0.0
        quality = sweep.verdict.quality
        values["controller.titan-next.unplanned_rate"] = quality["tn_unplanned_rate"]
        values["stress.overflow_share"] = quality["overflow_share"]
        values["metrics.tn_e2e_p95_ms"] = quality["tn_e2e_p95_ms"]
        return values

    def _pool_costs(self, sweep: Sweep) -> Dict[str, float]:
        pool_costs = getattr(self.workload, "pool_costs", None)
        if pool_costs is None:
            return {}
        try:
            return pool_costs(self.workload.build(), sweep.outcome)
        except Exception:
            self.tally.check(False, "fan-out cost probe raised:\n" + traceback.format_exc())
            return {}

    def _result(
        self,
        values: Dict[str, float],
        units: Dict[str, str],
        samples: Dict[str, Any],
        measured: bool,
    ) -> Result:
        metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
        failed = len(self.tally.failures)
        attempted = max(self.tally.attempted, 1)
        for reason in self.tally.failures:
            print(f"FAILED: {reason}", file=sys.stderr)
        record = {
            "workload": self.workload.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "params": dataclasses.asdict(self.workload),
            "provenance": provenance(),
            "samples": samples,
            "failures": self.tally.failures,
            "metrics": metrics,
        }
        return Result(failed == 0 and measured, attempted, failed, metrics, record)


def provenance() -> Dict[str, Any]:
    root = Path(__file__).resolve().parent.parent
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "available_workers": available_workers(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
