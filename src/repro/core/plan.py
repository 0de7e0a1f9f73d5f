"""The offline precomputed assignment plan (§6.1(4)).

The LP's solution is a fractional assignment table; the plan turns it
into per-(slot, reduced config) quotas over (DC, routing option) pairs.
The online controller consumes quotas with weighted-random selection
("we then use all the counts for each assignment ... as weights and use
weighted random to pick the assignment", §6.4).

* :class:`OfflinePlan` — the dict-backed plan the planners build and
  splice;
* :class:`QuotaIndex` — the controller's working copy: every touched
  (slot, config) entry as one row of a dense quota matrix, drawn from
  in rounds (:meth:`QuotaIndex.draw`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..net.latency import INTERNET, WAN
from ..workload.configs import CallConfig
from .lp import AssignmentTable

#: Quotas at or below this are treated as exhausted when sampling.
QUOTA_EPS = 1e-9

#: Routing options in index order (0 = WAN, 1 = INTERNET).
ROUTING_OPTION_ORDER: Tuple[str, str] = (WAN, INTERNET)

#: ``QuotaIndex`` row-table marker for a (slot, key) not yet looked up.
_UNSEEN = -2


@dataclass
class PlanEntry:
    """Quotas for one (slot, reduced config)."""

    buckets: Dict[Tuple[str, str], float] = field(default_factory=dict)

    def total(self) -> float:
        return sum(self.buckets.values())

    def weights(self) -> List[Tuple[Tuple[str, str], float]]:
        return sorted(self.buckets.items())


class OfflinePlan:
    """Precomputed (slot, reduced config) → (DC, option) quota table."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, CallConfig], PlanEntry] = {}

    @classmethod
    def from_assignment(cls, assignment: AssignmentTable) -> "OfflinePlan":
        """Positive counts of ``assignment`` as quotas; a NaN or infinite
        count raises ``ValueError`` naming its ``(slot, config)`` key."""
        plan = cls()
        plan._install(assignment, None)
        return plan

    def splice(self, from_slot: int, assignment: AssignmentTable) -> None:
        """Replace quotas for slots ≥ ``from_slot`` with a fresh plan.

        The rolling replanner's primitive (§6.3): every entry at or
        after ``from_slot`` is dropped and the positive counts of
        ``assignment`` (restricted to those slots) are installed in its
        place.  Past slots are never touched — calls already assigned
        stay assigned.
        """
        for key in [k for k in self._entries if k[0] >= from_slot]:
            del self._entries[key]
        self._install(assignment, from_slot)

    def _install(self, assignment: AssignmentTable, from_slot: Optional[int]) -> None:
        for (t, config, dc, option), count in assignment.items():
            if not math.isfinite(count):
                raise ValueError(f"plan count for {(t, config)} must be finite, got {count}")
            if count <= 0 or (from_slot is not None and t < from_slot):
                continue
            entry = self._entries.setdefault((t, config), PlanEntry())
            bucket = (dc, option)
            entry.buckets[bucket] = entry.buckets.get(bucket, 0.0) + count

    def entry(self, slot: int, config: CallConfig) -> Optional[PlanEntry]:
        return self._entries.get((slot, config))

    def configs_for_slot(self, slot: int) -> List[CallConfig]:
        return [c for (t, c) in self._entries if t == slot]


class QuotaIndex:
    """Dense quota matrix over an :class:`OfflinePlan`.

    Plan keys (planning configs) and DC codes are interned to integers.
    Each touched (slot, key) entry is snapshotted from the plan, on
    first lookup, into one row: ``quota[row]`` holds its remaining
    quotas in the canonical bucket order of :meth:`PlanEntry.weights`
    (zero-padded), ``bucket_dc`` / ``bucket_option`` the buckets' DC
    (into ``dc_codes``, which starts as the given list) and routing
    option (into :data:`ROUTING_OPTION_ORDER`) indices.  Draws mutate
    the snapshot only, never the source plan.
    """

    def __init__(self, plan: OfflinePlan, dc_codes: Sequence[str]) -> None:
        self._plan = plan
        self._key_index: Dict[CallConfig, int] = {}
        self._key_configs: List[CallConfig] = []
        self.dc_codes: List[str] = list(dc_codes)
        self._dc_index = {dc: i for i, dc in enumerate(self.dc_codes)}
        self._option_index = {opt: i for i, opt in enumerate(ROUTING_OPTION_ORDER)}
        #: (slot, key) → row, ``-1`` where the plan has no entry; the
        #: last column, which key ``-1`` indexes, is all ``-1``.
        self._rows = np.full((0, 1), -1, dtype=np.int32)
        self.quota = np.zeros((0, 1))
        self.bucket_dc = np.zeros((0, 1), dtype=np.int32)
        self.bucket_option = np.zeros((0, 1), dtype=np.int8)

    def key(self, config: CallConfig) -> int:
        """Intern a planning config, returning its integer key."""
        idx = self._key_index.get(config)
        if idx is None:
            idx = len(self._key_configs)
            self._key_index[config] = idx
            self._key_configs.append(config)
        return idx

    def key_config(self, key: int) -> CallConfig:
        return self._key_configs[key]

    def rows(self, slots: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Entry rows of parallel (slot, key) arrays; ``-1`` where the
        plan has no entry or the key is ``-1``."""
        old = self._rows
        keys_needed = max(old.shape[1] - 1, len(self._key_configs))
        shape = (max(old.shape[0], int(slots.max(initial=-1)) + 1), keys_needed + 1)
        if shape != old.shape:
            self._rows = np.full(shape, _UNSEEN, dtype=np.int32)
            self._rows[: old.shape[0], : old.shape[1] - 1] = old[:, :-1]
            self._rows[:, -1] = -1
        flat = slots * shape[1] + keys % shape[1]
        rows = self._rows.ravel()[flat]
        unseen = rows == _UNSEEN
        if unseen.any():
            self._load(np.unique(flat[unseen]), shape[1])
            rows = self._rows.ravel()[flat]
        return rows

    def _load(self, flat_keys: np.ndarray, width: int) -> None:
        """Snapshot the plan entries of (slot, key) pairs ``slot * width + key``."""
        quotas: List[List[float]] = []
        dcs: List[List[int]] = []
        options: List[List[int]] = []
        for flat in flat_keys.tolist():
            slot, key = divmod(flat, width)
            source = self._plan.entry(slot, self._key_configs[key])
            if source is None:
                self._rows[slot, key] = -1
                continue
            items = source.weights()
            self._rows[slot, key] = len(self.quota) + len(quotas)
            quotas.append([w for _, w in items])
            dcs.append([self._dc(dc) for (dc, _), _ in items])
            options.append([self._option_index[opt] for (_, opt), _ in items])
        if not quotas:
            return
        width = max(self.quota.shape[1], max(len(q) for q in quotas))
        self.quota = self._stack(self.quota, quotas, width, np.float64)
        self.bucket_dc = self._stack(self.bucket_dc, dcs, width, np.int32)
        self.bucket_option = self._stack(self.bucket_option, options, width, np.int8)

    @staticmethod
    def _stack(old: np.ndarray, rows: List[list], width: int, dtype) -> np.ndarray:
        out = np.zeros((len(old) + len(rows), width), dtype=dtype)
        out[: len(old), : old.shape[1]] = old
        for i, row in enumerate(rows, start=len(old)):
            out[i, : len(row)] = row
        return out

    def _dc(self, dc: str) -> int:
        idx = self._dc_index.get(dc)
        if idx is None:
            idx = self._dc_index[dc] = len(self.dc_codes)
            self.dc_codes.append(dc)
        return idx

    def live(self) -> np.ndarray:
        """Per row: does any bucket hold more than :data:`QUOTA_EPS`?"""
        return (self.quota > QUOTA_EPS).any(axis=1)

    def draw(self, rows: np.ndarray, uniforms: np.ndarray, consume: np.ndarray) -> np.ndarray:
        """Weighted-random bucket picks for a sequence of draw events.

        Event ``i`` draws from row ``rows[i]`` with ``uniforms[i]``;
        the events of one row apply in sequence order.  A pick is the
        inverse-CDF draw over the row's buckets above
        :data:`QUOTA_EPS` — the first bucket whose running quota sum
        (zeros in place of exhausted buckets, so the same doubles as a
        sum over the live buckets alone) exceeds ``u * total``, or the
        last live bucket when rounding leaves none.  The picked bucket
        then loses one unit if it holds at least ``1 - QUOTA_EPS``;
        where ``consume[i]`` is False the unit goes straight back
        (``(q - 1) + 1``, a wrong guess refunded at reveal).

        Rows are independent, so round ``r`` applies the ``r``-th event
        of every row at once.  Returns the picked bucket per event,
        ``-1`` where the row had no live bucket left.
        """
        picks = np.full(len(rows), -1, dtype=np.int64)
        if not len(rows):
            return picks
        by_row = np.argsort(rows, kind="stable")
        grouped = rows[by_row]
        first = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
        rank = np.arange(len(rows)) - np.repeat(first, np.diff(np.r_[first, len(rows)]))
        by_round = by_row[np.argsort(rank, kind="stable")]
        bounds = np.r_[0, np.cumsum(np.bincount(rank))]
        width = self.quota.shape[1]
        cells = self.quota.reshape(-1)  # a view: ``_stack`` builds C-contiguous rows
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            events = by_round[lo:hi]
            row = rows[events]
            q = self.quota[row]
            live = q > QUOTA_EPS
            cum = np.cumsum(np.where(live, q, 0.0), axis=1)
            hit = (uniforms[events] * cum[:, -1])[:, None] < cum
            pick = hit.argmax(axis=1)
            spill = ~hit[:, -1]  # running sums only grow: no hit at all
            if spill.any():
                pick[spill] = width - 1 - live[spill, ::-1].argmax(axis=1)
            empty = cum[:, -1] == 0.0
            cell = row.astype(np.int64) * width + pick
            held = cells[cell]
            taken = held - 1.0
            ok = (held >= 1.0 - QUOTA_EPS) & ~empty
            cells[cell[ok]] = np.where(consume[events], taken, taken + 1.0)[ok]
            picks[events] = np.where(empty, -1, pick)
        return picks
