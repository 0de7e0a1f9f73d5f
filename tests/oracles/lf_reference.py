"""Per-slot fresh-LP Locality-First: the reference for the hot-session LF.

Builds and solves a brand-new :class:`JointAssignmentLp` for every slot
of the day over that slot's configs only — the straightforward reading
of §7.2's LF baseline.  The shipped :class:`LocalityFirstPolicy` solves
the same per-slot LPs on one hot-started HiGHS session and must
reproduce these plans.
"""

from repro.core.lp import AssignmentTable, JointAssignmentLp, JointLpOptions


def lf_reference_assign(scenario, demand, objective: str = "total_latency") -> AssignmentTable:
    """LF plan for ``demand`` from one fresh LP per slot."""
    slots = sorted({t for t, _ in demand})
    assignment: AssignmentTable = {}
    options = JointLpOptions(objective=objective)
    for t in slots:
        slot_demand = {(t, c): n for (tt, c), n in demand.items() if tt == t and n > 0}
        if not slot_demand:
            continue
        lp = JointAssignmentLp(scenario, slot_demand, options)
        result = lp.solve()
        if not result.is_optimal:
            raise RuntimeError(f"LF LP failed at slot {t}: {result.status}")
        assignment.update(result.assignment)
    return assignment
