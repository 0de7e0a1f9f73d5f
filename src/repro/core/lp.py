"""The Titan-Next joint MP-DC + routing LP (Fig 13).

Decision variable ``X[t, c, m, p]`` is the number of calls of reduced
call config *c* in timeslot *t* assigned to MP DC *m* over routing
option *p* (WAN or Internet); ``y_l`` is the peak bandwidth of WAN link
*l*.  The objective minimizes the sum of WAN link peaks — exactly the
quantity the operator is billed on.

Constraints (paper numbering):

* **C1** every call of every (t, c) is assigned somewhere;
* **C2** per-DC compute capacity per slot;
* **C3** Internet path capacity per slot — we enforce it per
  (client country, DC) pair, matching the per-pair capacities Titan
  actually records (a strictly tighter, still-linear refinement of the
  paper's per-DC formulation, available in ``per_dc`` mode too);
* **C4** the average (over calls) of max-E2E latency is bounded by E;
* **C5** ``y_l`` dominates every slot's load on link *l*.

The same builder also produces the Locality-First baseline (§7.2): same
constraint set minus C4, with the objective replaced by total latency
(or total max-E2E latency for the LF-E2E variant).

The production :meth:`JointAssignmentLp.build` is *array-first*: it
enumerates the LP columns once into flat index arrays, stacks the
per-(config, DC, option) coefficient tables (E2E latency, bandwidth,
compute cores, link incidence) from the scenario's per-config memo
(:meth:`~repro.core.scenario.Scenario.lp_config_row`), and emits every
constraint family as a COO :class:`~repro.solver.model.ConstraintBlock`
— no per-term dict churn, no string-keyed lookups.  Capacity (allowed
Internet columns, C2/C3 right-hand sides) is read at build time.  The
original scalar builder lives with the tests as an equivalence oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..net.latency import INTERNET, WAN
from ..solver.model import ConstraintBlock, LinearProgram, Solution
from ..workload.configs import CallConfig
from .scenario import Scenario

#: Assignment: (t, config, dc, option) -> number of calls (fractional).
AssignmentTable = Dict[Tuple[int, CallConfig, str, str], float]

#: Column routing options, by integer code (0 = WAN, 1 = Internet).
_OPTIONS = (WAN, INTERNET)


@dataclass(frozen=True)
class JointLpOptions:
    """Knobs for the LP builder."""

    #: Bound E on the average of max-E2E latency (ms); §7.5 uses 75
    #: on weekdays and 80 on weekends.
    e2e_bound_ms: float = 75.0
    #: Disable Internet routing entirely (the "savings with only MP DC
    #: placement" ablation of §7.4).
    allow_internet: bool = True
    #: Multiplier on Titan's Internet capacities (the "double the
    #: traffic on the Internet" experiment of §7.4 uses 2.0).
    internet_capacity_factor: float = 1.0
    #: Enforce C3 per (country, DC) pair (True) or per DC (False).
    per_pair_internet_cap: bool = True
    #: Objective: "sum_of_peaks" (Titan-Next), "total_latency" (LF) or
    #: "total_e2e" (the LF variant optimizing total max-E2E latency).
    objective: str = "sum_of_peaks"
    #: Pin each reduced config to exactly one DC (the abandoned ILP idea
    #: of §6.3, approximated by restricting each config's columns to its
    #: latency-best DC).
    single_dc_per_config: bool = False
    #: Compute-cap relaxation applied in single-DC mode: pinning every
    #: config to one DC cannot pack non-aligned per-country peaks into
    #: capacity provisioned for the pooled peak, so the ablation grants
    #: extra headroom (and reports the lost network savings).
    single_dc_cap_relax: float = 1.5
    #: Tiny locality regularizer added to the sum-of-peaks objective.
    #: The LP is indifferent about configs with negligible bandwidth
    #: (audio), so a pure vertex solution scatters them arbitrarily —
    #: inflating migrations and latency for no peak benefit.  The
    #: epsilon breaks those ties toward nearby DCs.
    locality_epsilon: float = 1e-6
    #: Content-keyed perturbation (sum-of-peaks objective only) that
    #: makes the optimal vertex unique: each (config, DC, option)
    #: column gets a pseudo-random cost in [0, tie_break_epsilon) keyed
    #: on its identity, so exactly-tied columns (equal latencies, e.g.
    #: symmetric DCs or audio/video twins) no longer span a degenerate
    #: optimal face.  A unique optimum is what lets a warm-started
    #: cached plan (``PlanCache``) reproduce a freshly built LP's plan
    #: bit-for-bit.  Keyed on content, not column index, so it is
    #: identical across cached and per-day structures.  Sized well
    #: below the locality term at typical inter-DC latency gaps (1 ms
    #: of locality outweighs the whole tie-break range) so it decides
    #: ties and sub-millisecond near-ties only — larger values scatter
    #: configs to hash-preferred DCs and inflate migrations — while
    #: staying above the solver's 1e-7 dual tolerance, below which the
    #: perturbation would be ignored and the optimum non-unique again.
    tie_break_epsilon: float = 1e-6

    def __post_init__(self) -> None:
        if self.e2e_bound_ms <= 0:
            raise ValueError("e2e_bound_ms must be positive")
        if self.internet_capacity_factor < 0:
            raise ValueError("internet_capacity_factor must be non-negative")
        if self.tie_break_epsilon < 0:
            raise ValueError("tie_break_epsilon must be non-negative")
        if self.objective not in ("sum_of_peaks", "total_latency", "total_e2e"):
            raise ValueError(f"unknown objective: {self.objective}")


@dataclass
class JointLpResult:
    """Solved assignment plan."""

    status: str
    objective: Optional[float]
    assignment: AssignmentTable
    link_peaks: Dict[int, float] = field(default_factory=dict)

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"

    def sum_of_peaks(self) -> float:
        return sum(self.link_peaks.values())


@dataclass
class LpArtifacts:
    """Index structures tying a built LP back to the planning domain.

    Column ``j`` of the LP is
    ``(col_t[j], configs[col_cfg[j]], dc_codes[col_dc[j]], _OPTIONS[col_opt[j]])``;
    ``c1_block.rhs`` / ``c4_block.rhs`` are the arrays a multi-day plan
    cache mutates between solves.  The C2 (compute) and C3 (Internet
    capacity) blocks are retained too, with per-row key arrays, so a
    stress campaign can refresh *capacity* right-hand sides in place —
    outages and cuts are RHS-only changes, exactly like demand.
    """

    configs: List[CallConfig]
    dc_codes: List[str]
    col_t: np.ndarray
    col_cfg: np.ndarray
    col_dc: np.ndarray
    col_opt: np.ndarray
    #: C1 row id per column (column's (t, config) demand group).
    col_group: np.ndarray
    #: (t, config) per C1 row, aligned with ``c1_block.rhs``.
    groups: List[Tuple[int, CallConfig]]
    #: First y (link-peak) variable handle; x handles are 0..n_cols-1.
    y_base: int
    n_links: int
    c1_block: Optional[ConstraintBlock] = None
    c4_block: Optional[ConstraintBlock] = None
    c2_block: Optional[ConstraintBlock] = None
    #: (slot, dc index) per C2 row, aligned with ``c2_block.rhs``.
    c2_slot: Optional[np.ndarray] = None
    c2_dc: Optional[np.ndarray] = None
    c3_block: Optional[ConstraintBlock] = None
    #: (slot, country index, dc index) per C3 row, aligned with
    #: ``c3_block.rhs``; country is -1 in per-DC C3 mode.
    c3_slot: Optional[np.ndarray] = None
    c3_country: Optional[np.ndarray] = None
    c3_dc: Optional[np.ndarray] = None
    #: Lazily built (t, config, dc, option) -> column handle map.
    _column_index: Optional[Dict[Tuple[int, CallConfig, str, str], int]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def n_cols(self) -> int:
        return int(self.col_t.size)

    def key_of(self, j: int) -> Tuple[int, CallConfig, str, str]:
        """The (t, config, dc, option) tuple of column ``j``."""
        return (
            int(self.col_t[j]),
            self.configs[self.col_cfg[j]],
            self.dc_codes[self.col_dc[j]],
            _OPTIONS[self.col_opt[j]],
        )

    # -- per-slot block slicing ---------------------------------------------
    #
    # The C1 (demand), C2 (compute), and C3 (Internet capacity) blocks
    # are block-diagonal per timeslot: each row touches columns of one
    # slot only.  Only the C4 average-E2E row and the C5 rows' shared
    # ``y`` columns couple slots — which is what lets a decomposed
    # planner solve slots independently and reconcile with a small
    # coupling pass over the full row set.

    @property
    def y_columns(self) -> np.ndarray:
        """Handles of the cross-slot ``y`` (link-peak) columns."""
        return np.arange(self.y_base, self.y_base + self.n_links, dtype=np.int64)

    @property
    def slots(self) -> np.ndarray:
        """The distinct timeslots covered by the x columns, sorted."""
        return np.unique(self.col_t)

    def x_columns_for_slot(self, t: int) -> np.ndarray:
        """Handles of the slot-``t`` x block (C1/C2/C3 are block-diagonal
        per slot, so these columns form an independent subproblem but
        for C4 and the shared ``y`` columns)."""
        return np.nonzero(self.col_t == t)[0].astype(np.int64)

    def column_index(self) -> Dict[Tuple[int, CallConfig, str, str], int]:
        """(t, config, dc, option) -> column handle, built once.

        The inverse of :meth:`key_of`; a decomposed planner uses it to
        translate slot-subproblem supports back into columns of the
        full LP.
        """
        if self._column_index is None:
            self._column_index = {self.key_of(j): j for j in range(self.n_cols)}
        return self._column_index


class JointAssignmentLp:
    """Builds and solves the Fig 13 LP for one planning horizon."""

    def __init__(
        self,
        scenario: Scenario,
        demand: Mapping[Tuple[int, CallConfig], float],
        options: Optional[JointLpOptions] = None,
    ) -> None:
        """``demand`` maps (timeslot, reduced config) to call counts."""
        self.scenario = scenario
        self.options = options if options is not None else JointLpOptions()
        self.demand = {k: v for k, v in demand.items() if v > 0}
        if not self.demand:
            raise ValueError("empty demand")
        self.slots = sorted({t for t, _ in self.demand})
        self.configs = sorted({c for _, c in self.demand}, key=str)

    # -- column generation --------------------------------------------------

    def _allowed_options(self, config: CallConfig, dc_code: str) -> List[str]:
        if not self.options.allow_internet:
            return [WAN]
        # Pairs with zero Internet capacity never get Internet columns.
        cap = min(
            self.scenario.internet_cap_gbps(country, dc_code) for country in config.countries
        )
        if cap * self.options.internet_capacity_factor <= 0:
            return [WAN]
        return [WAN, INTERNET]

    def _allowed_dcs(self, config: CallConfig) -> List[str]:
        if not self.options.single_dc_per_config:
            return self.scenario.dc_codes
        return [self._pinned_dc(config)]

    def _pinned_dc(self, config: CallConfig) -> str:
        """Capacity-aware country -> DC pinning (the §6.3 ILP idea).

        Countries are assigned greedily (largest compute need first) to
        their nearest DC with enough remaining peak capacity; a config
        follows its first country.  Without capacity awareness the
        latency-best DC would simply be infeasible.
        """
        if not hasattr(self, "_pinning"):
            scenario = self.scenario
            # Exact per-slot compute need per pinning group (the first
            # country of each config), then greedy first-fit by peak.
            per_slot: Dict[str, Dict[int, float]] = {}
            for (t, c), count in self.demand.items():
                country = c.countries[0]
                per_slot.setdefault(country, {})
                per_slot[country][t] = per_slot[country].get(t, 0.0) + count * c.compute_cores()
            peak_need = {country: max(slots.values()) for country, slots in per_slot.items()}
            remaining = dict(scenario.compute_caps)
            pinning: Dict[str, str] = {}
            for country in sorted(peak_need, key=lambda c: -peak_need[c]):
                ranked = sorted(
                    scenario.dc_codes,
                    key=lambda dc: scenario.one_way_ms(country, dc, WAN),
                )
                chosen = None
                for dc in ranked:
                    if remaining[dc] >= peak_need[country]:
                        chosen = dc
                        break
                if chosen is None:
                    chosen = max(remaining, key=remaining.get)
                remaining[chosen] -= peak_need[country]
                pinning[country] = chosen
            self._pinning = pinning
        return self._pinning[config.countries[0]]

    # -- array-first build ---------------------------------------------------

    def _build(self) -> Tuple[LinearProgram, LpArtifacts]:
        """Array-first LP assembly: one pass to enumerate columns, then
        vectorized COO emission per constraint family."""
        scenario = self.scenario
        opts = self.options
        configs = self.configs
        dc_codes = scenario.dc_codes
        n_dc = len(dc_codes)
        dc_index = {dc: i for i, dc in enumerate(dc_codes)}
        country_codes = scenario.country_codes
        n_country = len(country_codes)
        sum_of_peaks = opts.objective == "sum_of_peaks"
        n_links = scenario.wan_link_count if sum_of_peaks else 0

        # Per-config column template: (dc index, option code) pairs, the
        # same for every timeslot (allowed DCs/options are t-invariant).
        tmpl_dc: List[np.ndarray] = []
        tmpl_opt: List[np.ndarray] = []
        for config in configs:
            dcs, opts_codes = [], []
            for dc in self._allowed_dcs(config):
                for option in self._allowed_options(config, dc):
                    dcs.append(dc_index[dc])
                    opts_codes.append(0 if option == WAN else 1)
            tmpl_dc.append(np.asarray(dcs, dtype=np.int64))
            tmpl_opt.append(np.asarray(opts_codes, dtype=np.int64))

        # Coefficient tables over (config, dc, option): the latency- and
        # config-only parts come from the scenario's per-config memo.
        cfg_rows = [scenario.lp_config_row(config) for config in configs]
        e2e = np.stack([row.e2e for row in cfg_rows])
        total_lat = np.stack([row.total_lat for row in cfg_rows])
        cores = np.asarray([row.cores for row in cfg_rows])
        total_bw = np.asarray([row.total_bw for row in cfg_rows])

        # Column enumeration: one entry per (t, config, dc, option), in
        # (t, str(config)) group order — ``configs`` is sorted by str.
        cfg_of = {config: ci for ci, config in enumerate(configs)}
        demand_items = sorted(self.demand.items(), key=lambda kv: (kv[0][0], cfg_of[kv[0][1]]))
        groups: List[Tuple[int, CallConfig]] = [key for key, _ in demand_items]
        counts = np.asarray([count for _, count in demand_items], dtype=np.float64)
        group_t = np.asarray([t for t, _ in groups], dtype=np.int64)
        group_cfg = np.asarray([cfg_of[config] for _, config in groups], dtype=np.int64)
        widths = np.asarray([tmpl_dc[ci].size for ci in group_cfg], dtype=np.int64)
        col_t = np.repeat(group_t, widths)
        col_cfg = np.repeat(group_cfg, widths)
        col_dc = np.concatenate([tmpl_dc[ci] for ci in group_cfg])
        col_opt = np.concatenate([tmpl_opt[ci] for ci in group_cfg])
        col_group = np.repeat(np.arange(len(groups), dtype=np.int64), widths)
        n_cols = col_t.size

        lp = LinearProgram("titan-next")
        artifacts = LpArtifacts(
            configs=list(configs),
            dc_codes=list(dc_codes),
            col_t=col_t,
            col_cfg=col_cfg,
            col_dc=col_dc,
            col_opt=col_opt,
            col_group=col_group,
            groups=groups,
            y_base=n_cols,
            n_links=n_links,
        )
        cfg_strs = [str(config) for config in configs]
        lp.add_variables(
            n_cols,
            namer=lambda j: (
                f"x[{col_t[j]}][{cfg_strs[col_cfg[j]]}]"
                f"[{dc_codes[col_dc[j]]}][{_OPTIONS[col_opt[j]]}]"
            ),
        )
        if sum_of_peaks:
            lp.add_variables(n_links, namer=lambda i: f"y[{i}]")

        x_cols = np.arange(n_cols, dtype=np.int64)

        # C1 — assign all calls of every (t, c).
        artifacts.c1_block = lp.add_constraint_block(
            col_group, x_cols, np.ones(n_cols), "==", counts, name="C1"
        )

        # C2 — per-DC compute capacity per slot.
        c2_key = col_t * n_dc + col_dc
        c2_uniq, c2_rows = np.unique(c2_key, return_inverse=True)
        caps = np.asarray([scenario.compute_caps[dc] for dc in dc_codes])
        if opts.single_dc_per_config:
            caps = caps * opts.single_dc_cap_relax
        artifacts.c2_block = lp.add_constraint_block(
            c2_rows, x_cols, cores[col_cfg], "<=", caps[c2_uniq % n_dc], name="C2"
        )
        artifacts.c2_slot = c2_uniq // n_dc
        artifacts.c2_dc = c2_uniq % n_dc

        # C3 — Internet capacity.
        if opts.allow_internet:
            inet = np.nonzero(col_opt == 1)[0]
            if inet.size:
                factor = opts.internet_capacity_factor
                if opts.per_pair_internet_cap:
                    reps = np.asarray([cfg_rows[c].countries.size for c in col_cfg[inet]])
                    entry_cols = np.repeat(inet, reps)
                    entry_country = np.concatenate([cfg_rows[c].countries for c in col_cfg[inet]])
                    entry_vals = np.concatenate([cfg_rows[c].bws for c in col_cfg[inet]])
                    entry_t = np.repeat(col_t[inet], reps)
                    entry_dc = np.repeat(col_dc[inet], reps)
                    key = (entry_t * n_country + entry_country) * n_dc + entry_dc
                    uniq, rows = np.unique(key, return_inverse=True)
                    rhs = np.asarray(
                        [
                            scenario.internet_cap_gbps(
                                country_codes[(k // n_dc) % n_country], dc_codes[k % n_dc]
                            )
                            * factor
                            for k in uniq
                        ]
                    )
                    artifacts.c3_block = lp.add_constraint_block(
                        rows, entry_cols, entry_vals, "<=", rhs, name="C3"
                    )
                    artifacts.c3_slot = uniq // (n_dc * n_country)
                    artifacts.c3_country = (uniq // n_dc) % n_country
                    artifacts.c3_dc = uniq % n_dc
                else:
                    key = col_t[inet] * n_dc + col_dc[inet]
                    uniq, rows = np.unique(key, return_inverse=True)
                    per_dc_cap = np.asarray(
                        [
                            factor
                            * sum(
                                scenario.internet_cap_gbps(country, dc)
                                for country in country_codes
                            )
                            for dc in dc_codes
                        ]
                    )
                    artifacts.c3_block = lp.add_constraint_block(
                        rows,
                        inet,
                        total_bw[col_cfg[inet]],
                        "<=",
                        per_dc_cap[uniq % n_dc],
                        name="C3",
                    )
                    artifacts.c3_slot = uniq // n_dc
                    artifacts.c3_country = np.full(uniq.size, -1, dtype=np.int64)
                    artifacts.c3_dc = uniq % n_dc

        # C4 — average max-E2E latency bound (Titan-Next only).
        if sum_of_peaks:
            artifacts.c4_block = lp.add_constraint_block(
                np.zeros(n_cols, dtype=np.int64),
                x_cols,
                e2e[col_cfg, col_dc, col_opt],
                "<=",
                np.asarray([opts.e2e_bound_ms * counts.sum()]),
                name="C4",
            )

        # C5 — link peaks dominate every slot's WAN load.
        if sum_of_peaks:
            wan = np.nonzero(col_opt == 0)[0]
            pairs = list(zip(col_cfg[wan], col_dc[wan]))
            links = [cfg_rows[c].c5_links[d] for c, d in pairs]
            link_bws = [cfg_rows[c].c5_bws[d] for c, d in pairs]
            lens = np.asarray([ids.size for ids in links], dtype=np.int64)
            entry_cols = np.repeat(wan, lens)
            entry_link = np.concatenate(links) if links else np.zeros(0, dtype=np.int64)
            entry_vals = np.concatenate(link_bws) if links else np.zeros(0)
            entry_t = np.repeat(col_t[wan], lens)
            key = entry_t * max(n_links, 1) + entry_link
            uniq, rows = np.unique(key, return_inverse=True)
            n_rows = uniq.size
            # Each (t, link) row also gets -1 * y[link].
            y_cols = artifacts.y_base + (uniq % max(n_links, 1))
            lp.add_constraint_block(
                np.concatenate([rows, np.arange(n_rows, dtype=np.int64)]),
                np.concatenate([entry_cols, y_cols]),
                np.concatenate([entry_vals, -np.ones(n_rows)]),
                "<=",
                np.zeros(n_rows),
                name="C5",
            )

        # Objective.
        c = np.zeros(lp.num_variables)
        if sum_of_peaks:
            c[artifacts.y_base : artifacts.y_base + n_links] = 1.0
            if opts.locality_epsilon > 0:
                c[:n_cols] += opts.locality_epsilon * total_lat[col_cfg, col_dc, col_opt]
            if opts.tie_break_epsilon > 0:
                tie_break = np.stack([row.tie_break for row in cfg_rows])
                c[:n_cols] += opts.tie_break_epsilon * tie_break[col_cfg, col_dc, col_opt]
        elif opts.objective == "total_latency":
            c[:n_cols] = total_lat[col_cfg, col_dc, col_opt]
        else:  # total_e2e
            c[:n_cols] = e2e[col_cfg, col_dc, col_opt]
        lp.set_objective_array(c)
        return lp, artifacts

    def build(self) -> Tuple[LinearProgram, Dict[Tuple[int, CallConfig, str, str], str]]:
        """Build the LP; returns it plus the X-variable name table.

        The name table exists for debugging and backward compatibility;
        the solve path works purely on integer handles (see
        :meth:`_build` / :class:`LpArtifacts`).
        """
        lp, artifacts = self._build()
        var_names = {
            artifacts.key_of(j): lp.variable_name(j) for j in range(artifacts.n_cols)
        }
        return lp, var_names

    # -- solve ---------------------------------------------------------------

    def solve(self, method: str = "highs") -> JointLpResult:
        lp, artifacts = self._build()
        solution = lp.solve(method=method)
        return extract_result(solution, artifacts)


def extract_result(solution: Solution, artifacts: LpArtifacts) -> JointLpResult:
    """Index-based extraction of a solved plan (no name round-trips)."""
    if not solution.is_optimal:
        return JointLpResult(status=solution.status, objective=None, assignment={})
    x = solution.x
    values = x[: artifacts.n_cols]
    assignment: AssignmentTable = {}
    for j in np.nonzero(values > 1e-9)[0]:
        assignment[artifacts.key_of(j)] = float(values[j])
    link_peaks = {
        link: float(x[artifacts.y_base + link]) for link in range(artifacts.n_links)
    }
    return JointLpResult(
        status="optimal",
        objective=solution.objective,
        assignment=assignment,
        link_peaks=link_peaks,
    )
