"""Per-call controllers: the references for the batch ``process_table`` paths.

Each class extends a shipped controller with ``process(call)``, the
straightforward per-call loop over the same state (capacity tracker,
random generator, plan): admit or draw for one call at a time, in the
order calls arrive.  The shipped array kernels must reproduce these
loops call for call — placements, :class:`ControllerStats`, tracker
arrays, quota state and the position of the random stream.

The dict-path quota primitives (:func:`sample`, :func:`consume`,
:func:`refund`, :func:`peek`) work on any
:class:`~repro.core.plan.OfflinePlan` and mutate it in place.
"""

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.controller import (
    GUESS_MEDIA,
    CallAssignment,
    FirstJoinerLf,
    FirstJoinerTitan,
    FirstJoinerWrr,
    TitanNextController,
    _intra_country_guess,
    weighted_shuffle_order,
)
from repro.core.plan import QUOTA_EPS, OfflinePlan
from repro.net.latency import INTERNET, WAN
from repro.workload.configs import CallConfig
from repro.workload.traces import Call


def weighted_pick(weights: Sequence[float], u: float) -> int:
    """Inverse-CDF draw over positive ``weights`` from one uniform."""
    total = 0.0
    cumulative = []
    for w in weights:
        total += w
        cumulative.append(total)
    target = u * total
    for i, c in enumerate(cumulative):
        if target < c:
            return i
    return len(cumulative) - 1


def sample(
    plan: OfflinePlan, slot: int, config: CallConfig, rng: np.random.Generator
) -> Optional[Tuple[str, str]]:
    """Weighted-random (DC, option) draw from remaining quotas.

    Draws exactly one uniform from ``rng`` — none at all when every
    bucket is exhausted.
    """
    entry = plan.entry(slot, config)
    if entry is None:
        return None
    buckets = [(key, w) for key, w in entry.weights() if w > QUOTA_EPS]
    if not buckets:
        return None
    pick = weighted_pick([w for _, w in buckets], float(rng.random()))
    return buckets[pick][0]


def consume(
    plan: OfflinePlan, slot: int, config: CallConfig, dc: str, option: str, amount: float = 1.0
) -> bool:
    """Decrement a bucket's remaining quota; False if exhausted."""
    entry = plan.entry(slot, config)
    if entry is None:
        return False
    key = (dc, option)
    remaining = entry.buckets.get(key, 0.0)
    if remaining < amount - QUOTA_EPS:
        return False
    entry.buckets[key] = remaining - amount
    return True


def refund(
    plan: OfflinePlan, slot: int, config: CallConfig, dc: str, option: str, amount: float = 1.0
) -> None:
    """Return quota to a bucket (undo a :func:`consume`)."""
    entry = plan.entry(slot, config)
    key = (dc, option)
    entry.buckets[key] = entry.buckets.get(key, 0.0) + amount


def peek(plan: OfflinePlan, slot: int, config: CallConfig, dc: str, option: str) -> float:
    entry = plan.entry(slot, config)
    if entry is None:
        return 0.0
    return entry.buckets.get((dc, option), 0.0)


# -- capacity tracker, string-keyed -----------------------------------------


def has_room(tracker, config: CallConfig, dc: str, internet: bool, slot: int) -> bool:
    """Compute headroom at ``dc`` and, for an Internet bucket, Internet
    headroom for every participant country, at ``slot``."""
    tracker.reserve(slot + 1)
    d = tracker.dc_index[dc]
    if not tracker._compute[d, slot] + config.compute_cores() <= tracker._caps[d] + 1e-9:
        return False
    if internet:
        for code in config.countries:
            ci = tracker.country_row(code)
            used = tracker._internet[ci, d, slot]
            if used + config.country_bandwidth_gbps(code) > tracker._pair_caps[ci, d] + 1e-12:
                return False
    return True


def admit(tracker, config: CallConfig, dc: str, internet: bool, call: Call) -> None:
    tracker.reserve(call.end_slot)
    d = tracker.dc_index[dc]
    tracker._compute[d, call.start_slot : call.end_slot] += config.compute_cores()
    if internet:
        for code in config.countries:
            ci = tracker.country_row(code)
            tracker._internet[ci, d, call.start_slot : call.end_slot] += (
                config.country_bandwidth_gbps(code)
            )


def _first_with_room(controller, call: Call, buckets) -> CallAssignment:
    controller.stats.calls += 1
    for dc, option in buckets:
        if has_room(controller.tracker, call.config, dc, option == INTERNET, call.start_slot):
            admit(controller.tracker, call.config, dc, option == INTERNET, call)
            return CallAssignment(call, dc, option, dc, option)
    # Everything full: overflow onto the first DC's WAN.
    controller.stats.unplanned += 1
    dc = controller.scenario.dc_codes[0]
    admit(controller.tracker, call.config, dc, False, call)
    return CallAssignment(call, dc, WAN, dc, WAN)


class ReferenceWrr(FirstJoinerWrr):
    def process(self, call: Call) -> CallAssignment:
        keys, weights = self._buckets(call.first_joiner_country)
        order = weighted_shuffle_order(self.rng.random(len(keys)), weights)
        return _first_with_room(self, call, [keys[i] for i in order])


class ReferenceLf(FirstJoinerLf):
    def process(self, call: Call) -> CallAssignment:
        return _first_with_room(self, call, self._sorted_buckets(call.first_joiner_country))


class ReferenceTitan(FirstJoinerTitan):
    def process(self, call: Call) -> CallAssignment:
        self.stats.calls += 1
        scenario = self.scenario
        pick = np.searchsorted(self._cum_probs, self.rng.random(), side="right")
        dc = scenario.dc_codes[int(min(pick, len(self._cum_probs) - 1))]
        fraction = scenario.internet_fraction(call.first_joiner_country, dc)
        option = INTERNET if self.rng.random() < fraction else WAN
        return CallAssignment(call, dc, option, dc, option)


class ReferenceTitanNext(TitanNextController):
    """Per-call §6.4 controller: ``assign`` at first join, ``reveal`` at
    config convergence, quotas charged on the plan itself."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Most recently used planning config per country.
        self._recent_config: Dict[str, CallConfig] = {}
        #: Per in-flight call: the guessed config whose bucket was drawn
        #: at assign time, and whether a full unit was actually consumed
        #: (a fractional bucket can be drawn but hold less than one unit;
        #: refunding it anyway would mint quota from nothing).
        self._pending: Dict[int, Optional[Tuple[CallConfig, bool]]] = {}

    def _plan_slot(self, call: Call) -> int:
        return call.start_slot % self.slots_per_day

    def assign(self, call: Call) -> Tuple[str, str]:
        """Initial assignment from the first joiner's country only."""
        slot = self._plan_slot(call)
        country = call.first_joiner_country
        guesses: List[CallConfig] = []
        if country in self._recent_config:
            guesses.append(self._recent_config[country])
        for media in GUESS_MEDIA:
            candidate = _intra_country_guess(country, media)
            if candidate not in guesses:
                guesses.append(candidate)
        for guess in guesses:
            choice = sample(self.plan, slot, guess, self.rng)
            if choice is not None:
                dc, option = choice
                consumed = consume(self.plan, slot, guess, dc, option)
                self._pending[call.call_id] = (guess, consumed)
                return dc, option
        self.stats.unplanned += 1
        self._pending[call.call_id] = None
        return self._fallback_for_country(country)

    def reveal(self, call: Call, initial: Tuple[str, str]) -> CallAssignment:
        """Reconcile once the true (reduced) config is known (~5 min in)."""
        slot = self._plan_slot(call)
        true_reduced = self._plan_key(call.config)
        self._recent_config[call.first_joiner_country] = true_reduced
        initial_dc, initial_option = initial
        self.stats.calls += 1
        pending = self._pending.pop(call.call_id, None)
        guess, consumed = pending if pending is not None else (None, False)
        if guess == true_reduced:
            return CallAssignment(call, initial_dc, initial_option, initial_dc, initial_option)
        if consumed:
            refund(self.plan, slot, guess, initial_dc, initial_option)
        choice = sample(self.plan, slot, true_reduced, self.rng)
        if choice is None:
            return CallAssignment(call, initial_dc, initial_option, initial_dc, initial_option)
        final_dc, final_option = choice
        consume(self.plan, slot, true_reduced, final_dc, final_option)
        if final_dc != initial_dc:
            self.stats.dc_migrations += 1
        if final_option != initial_option:
            self.stats.option_migrations += 1
        return CallAssignment(call, initial_dc, initial_option, final_dc, final_option)

    def process(self, call: Call) -> CallAssignment:
        return self.reveal(call, self.assign(call))
