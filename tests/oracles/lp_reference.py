"""Scalar reference assembly of the Fig 13 LP (per-term ``add_term`` calls).

The ground truth the array-first :meth:`JointAssignmentLp.build` is
validated against: same variables, same constraint counts, same column
order and hence bit-identical objective vectors.  It reads the builder's
demand, options and scenario directly and shares only the column
admission rules (``_allowed_dcs`` / ``_allowed_options``).
"""

from typing import Dict, Tuple

from repro.core.lp import JointAssignmentLp
from repro.core.scenario import tie_break_unit
from repro.net.latency import INTERNET, WAN
from repro.solver.model import LinearProgram, LinExpr
from repro.workload.configs import CallConfig


def build_reference(
    builder: JointAssignmentLp,
) -> Tuple[LinearProgram, Dict[Tuple[int, CallConfig, str, str], str]]:
    """The original scalar LP assembly (per-term ``add_term`` calls).

    Kept as the ground truth the array-first ``JointAssignmentLp.build`` is
    validated against (same constraint counts, same optimum); also a
    readable rendition of the Fig 13 formulation.
    """
    scenario = builder.scenario
    opts = builder.options
    lp = LinearProgram("titan-next")
    var_names: Dict[Tuple[int, CallConfig, str, str], str] = {}

    x_vars: Dict[Tuple[int, CallConfig, str, str], object] = {}
    for (t, config), count in sorted(
        builder.demand.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
    ):
        for dc in builder._allowed_dcs(config):
            for option in builder._allowed_options(config, dc):
                name = f"x[{t}][{config}][{dc}][{option}]"
                x_vars[(t, config, dc, option)] = lp.add_variable(name)
                var_names[(t, config, dc, option)] = name

    y_vars = {}
    if opts.objective == "sum_of_peaks":
        for link_idx in range(scenario.wan_link_count):
            y_vars[link_idx] = lp.add_variable(f"y[{link_idx}]")

    # C1 — assign all calls of every (t, c).
    for (t, config), count in builder.demand.items():
        expr = LinExpr()
        for dc in builder._allowed_dcs(config):
            for option in builder._allowed_options(config, dc):
                expr.add_term(x_vars[(t, config, dc, option)])
        lp.add_constraint(expr == count, name=f"C1[{t}][{config}]")

    # C2 — per-DC compute capacity per slot.
    for t in builder.slots:
        for dc in scenario.dc_codes:
            expr = LinExpr()
            nonzero = False
            for config in builder.configs:
                if (t, config) not in builder.demand:
                    continue
                if dc not in builder._allowed_dcs(config):
                    continue
                cores = config.compute_cores()
                for option in builder._allowed_options(config, dc):
                    expr.add_term(x_vars[(t, config, dc, option)], cores)
                    nonzero = True
            if nonzero:
                cap = scenario.compute_caps[dc]
                if opts.single_dc_per_config:
                    cap *= opts.single_dc_cap_relax
                lp.add_constraint(expr <= cap, name=f"C2[{t}][{dc}]")

    # C3 — Internet capacity.
    if opts.allow_internet:
        _add_internet_caps(builder, lp, x_vars)

    # C4 — average max-E2E latency bound (Titan-Next only).
    if opts.objective == "sum_of_peaks":
        total_calls = sum(builder.demand.values())
        expr = LinExpr()
        for (t, config, dc, option), var in x_vars.items():
            expr.add_term(var, scenario.e2e_latency_ms(config, dc, option))
        lp.add_constraint(expr <= opts.e2e_bound_ms * total_calls, name="C4")

    # C5 — link peaks dominate every slot's WAN load.
    if opts.objective == "sum_of_peaks":
        for t in builder.slots:
            loads: Dict[int, LinExpr] = {}
            for config in builder.configs:
                if (t, config) not in builder.demand:
                    continue
                for dc in builder._allowed_dcs(config):
                    if (t, config, dc, WAN) not in x_vars:
                        continue
                    var = x_vars[(t, config, dc, WAN)]
                    for country, _ in config.participants:
                        bw = config.country_bandwidth_gbps(country)
                        if bw <= 0:
                            continue
                        for link_idx in scenario.link_indices(country, dc):
                            loads.setdefault(link_idx, LinExpr()).add_term(var, bw)
            for link_idx, load in loads.items():
                load.add_term(y_vars[link_idx], -1.0)
                lp.add_constraint(load <= 0, name=f"C5[{t}][{link_idx}]")

    # Objective.
    objective = LinExpr()
    if opts.objective == "sum_of_peaks":
        for var in y_vars.values():
            objective.add_term(var)
        if opts.locality_epsilon > 0:
            for (t, config, dc, option), var in x_vars.items():
                objective.add_term(
                    var, opts.locality_epsilon * scenario.total_latency_ms(config, dc, option)
                )
        if opts.tie_break_epsilon > 0:
            for (t, config, dc, option), var in x_vars.items():
                objective.add_term(
                    var, opts.tie_break_epsilon * tie_break_unit(config, dc, option)
                )
    elif opts.objective == "total_latency":
        for (t, config, dc, option), var in x_vars.items():
            objective.add_term(var, scenario.total_latency_ms(config, dc, option))
    else:  # total_e2e
        for (t, config, dc, option), var in x_vars.items():
            objective.add_term(var, scenario.e2e_latency_ms(config, dc, option))
    lp.set_objective(objective)
    return lp, var_names

def _add_internet_caps(builder: JointAssignmentLp, lp: LinearProgram, x_vars) -> None:
    scenario = builder.scenario
    factor = builder.options.internet_capacity_factor
    if builder.options.per_pair_internet_cap:
        for t in builder.slots:
            for country in scenario.country_codes:
                for dc in scenario.dc_codes:
                    cap = scenario.internet_cap_gbps(country, dc) * factor
                    expr = LinExpr()
                    nonzero = False
                    for config in builder.configs:
                        if (t, config) not in builder.demand:
                            continue
                        bw = config.country_bandwidth_gbps(country)
                        if bw <= 0:
                            continue
                        key = (t, config, dc, INTERNET)
                        if key in x_vars:
                            expr.add_term(x_vars[key], bw)
                            nonzero = True
                    if nonzero:
                        lp.add_constraint(expr <= cap, name=f"C3[{t}][{country}][{dc}]")
    else:
        for t in builder.slots:
            for dc in scenario.dc_codes:
                cap = factor * sum(
                    scenario.internet_cap_gbps(country, dc)
                    for country in scenario.country_codes
                )
                expr = LinExpr()
                nonzero = False
                for config in builder.configs:
                    if (t, config) not in builder.demand:
                        continue
                    key = (t, config, dc, INTERNET)
                    if key in x_vars:
                        expr.add_term(x_vars[key], config.bandwidth_gbps())
                        nonzero = True
                if nonzero:
                    lp.add_constraint(expr <= cap, name=f"C3[{t}][{dc}]")
