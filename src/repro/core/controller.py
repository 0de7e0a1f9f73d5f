"""Online controllers: per-call assignment when the first user joins (§6.4, §8.1).

All controllers face the same information constraint: the MP DC and
routing option must be chosen when the *first* participant joins, before
the true call config is known.  Five minutes in, the config converges
and a controller may have to migrate the call to follow its plan —
inter-DC migrations are the user-visible cost the reduced-call-config
mechanism (§6.2) exists to cut (Table 4).

Controllers:

* :class:`TitanNextController` — weighted-random draw from the offline
  precomputed plan using the guessed (intra-country) reduced config,
  reconciliation with quota accounting at reveal time;
* :class:`FirstJoinerWrr` — capacity-tracked weighted round robin;
* :class:`FirstJoinerLf` — latency-sorted buckets, first with capacity;
* :class:`FirstJoinerTitan` — weighted-random DC by cores, random
  routing by the pair's Titan fraction.

Each controller has one processing path, ``process_table(table)``, over
a whole :class:`~repro.workload.traces.CallTable`; it returns an
:class:`AssignmentBatch` and reproduces, call for call and bit for bit,
the per-call loop that admits the table's rows in order (the per-call
references live with the tests).  Why the array kernels are exact:

* **Admission (WRR, LF).**  Within one start slot, usage only grows, so
  a bucket without headroom under the usage before some call stays
  full for every later call of that slot.  Each call of a run of
  equal-slot calls is speculatively placed on its first bucket open
  under the usage before the run; a per-resource ``cumsum`` in call
  order then gives the usage every call sees as the same doubles the
  loop sums.  Every call before the first one whose bucket fails that
  check is placed exactly; the speculation restarts at that call,
  under the exact usage it sees, which places it for sure.
  ``np.add.at`` adds in index order, so committing a run with it gives
  the loop's sums in every (resource, slot) cell.
* **Plan draws (Titan-Next).**  A call's first guess is the true plan
  key of the previous call from its first joiner's country.  While
  every plan entry a call touches keeps a live bucket, each call draws
  a known number of uniforms (an initial pick if a guess has a live
  entry, a final pick if the guess was wrong and the true entry is
  live), so one block from the uniform stream covers a whole table and
  :meth:`~repro.core.plan.QuotaIndex.draw` walks all entries' picks in
  rounds.  Entries empty only monotonically; the first draw that meets
  an emptied entry restarts the speculation at its call, with the
  stream rewound to that call's offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..net.latency import INTERNET, WAN
from ..workload.configs import CallConfig
from ..workload.traces import Call, CallTable
from .plan import ROUTING_OPTION_ORDER, OfflinePlan, QuotaIndex
from .scenario import Scenario

#: Media order the controller tries for its intra-country guesses.
GUESS_MEDIA: Tuple[str, str, str] = ("video", "audio", "screenshare")

#: Most calls one admission run verifies at once (bounds its ledger).
_ADMIT_WINDOW = 4096
#: Most calls one speculation places before it is checked.
_HORIZON = 512


@dataclass
class CallAssignment:
    """Final placement of one call, including migration history."""

    call: Call
    initial_dc: str
    initial_option: str
    final_dc: str
    final_option: str

    @property
    def dc_migrated(self) -> bool:
        """Inter-DC migration — the damaging kind (§8.4)."""
        return self.initial_dc != self.final_dc

    @property
    def option_migrated(self) -> bool:
        return self.initial_option != self.final_option


@dataclass
class ControllerStats:
    """Aggregate counters for one simulated horizon."""

    calls: int = 0
    dc_migrations: int = 0
    option_migrations: int = 0
    unplanned: int = 0

    @property
    def dc_migration_rate(self) -> float:
        return self.dc_migrations / self.calls if self.calls else 0.0

    @property
    def option_migration_rate(self) -> float:
        """Routing-option changes per call (cheap, intra-DC, §8.4)."""
        return self.option_migrations / self.calls if self.calls else 0.0

    @property
    def unplanned_rate(self) -> float:
        """Fraction of calls the plan could not place (§6.4 surge path)."""
        return self.unplanned / self.calls if self.calls else 0.0


class AssignmentBatch:
    """Placements for a whole :class:`CallTable` as parallel arrays.

    Row ``i`` is the assignment of ``table.call(i)``: integer indices
    into ``dc_codes`` and ``options`` for the initial and final
    placements.  :class:`CallAssignment` objects are lazy views
    (indexing, iteration), so scalar consumers keep working while batch
    consumers aggregate straight off the arrays.
    """

    __slots__ = (
        "table",
        "initial_dc_idx",
        "initial_option_idx",
        "final_dc_idx",
        "final_option_idx",
        "dc_codes",
        "options",
    )

    def __init__(
        self,
        table: CallTable,
        initial_dc_idx: np.ndarray,
        initial_option_idx: np.ndarray,
        final_dc_idx: np.ndarray,
        final_option_idx: np.ndarray,
        dc_codes: Sequence[str],
        options: Tuple[str, str] = ROUTING_OPTION_ORDER,
    ) -> None:
        self.table = table
        self.initial_dc_idx = np.asarray(initial_dc_idx, dtype=np.int64)
        self.initial_option_idx = np.asarray(initial_option_idx, dtype=np.int64)
        self.final_dc_idx = np.asarray(final_dc_idx, dtype=np.int64)
        self.final_option_idx = np.asarray(final_option_idx, dtype=np.int64)
        self.dc_codes: Tuple[str, ...] = tuple(dc_codes)
        self.options = options

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, i: int) -> CallAssignment:
        if i < 0:
            i += len(self)
        return CallAssignment(
            self.table.call(i),
            self.dc_codes[self.initial_dc_idx[i]],
            self.options[self.initial_option_idx[i]],
            self.dc_codes[self.final_dc_idx[i]],
            self.options[self.final_option_idx[i]],
        )

    def __iter__(self) -> Iterator[CallAssignment]:
        for i in range(len(self)):
            yield self[i]

    @property
    def dc_migrations(self) -> int:
        return int(np.count_nonzero(self.initial_dc_idx != self.final_dc_idx))

    @property
    def option_migrations(self) -> int:
        return int(np.count_nonzero(self.initial_option_idx != self.final_option_idx))

    def to_list(self) -> List[CallAssignment]:
        return [self[i] for i in range(len(self))]


def _empty_batch(table: CallTable, dc_codes: Sequence[str]) -> AssignmentBatch:
    empty = np.zeros(0, dtype=np.int64)
    return AssignmentBatch(table, empty, empty, empty, empty, dc_codes)


class _UniformStream:
    """Chunked reader over a Generator's uniform stream.

    :meth:`take` returns exactly the doubles that many successive
    ``rng.random()`` calls would have — numpy fills arrays from the
    same underlying doubles — refilling its buffer one chunk at a time.
    The buffer persists across batches (the generator itself has
    already advanced past it), so route every draw through one stream:
    a direct draw from the underlying generator would skip the buffered
    doubles and desynchronize all subsequent draws.
    """

    __slots__ = ("_rng", "_buffer", "_pos", "_chunk")

    def __init__(self, rng: np.random.Generator, chunk: int = 1024) -> None:
        self._rng = rng
        self._chunk = chunk
        self._buffer = rng.random(chunk)
        self._pos = 0

    def take(self, count: int) -> np.ndarray:
        out = np.empty(count)
        filled = 0
        while filled < count:
            if self._pos >= self._chunk:
                self._buffer = self._rng.random(self._chunk)
                self._pos = 0
            step = min(count - filled, self._chunk - self._pos)
            out[filled : filled + step] = self._buffer[self._pos : self._pos + step]
            self._pos += step
            filled += step
        return out

    def mark(self) -> tuple:
        """A position :meth:`rewind` can return to."""
        return self._buffer, self._pos, self._rng.bit_generator.state

    def rewind(self, mark: tuple) -> None:
        self._buffer, self._pos, self._rng.bit_generator.state = mark


def weighted_shuffle_order(u: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Efraimidis–Spirakis weighted-random order from raw uniforms.

    Orders indices by descending ``u_i ** (1/w_i)`` (via the monotone
    ``log(u_i)/w_i``), which distributes like successive weighted draws
    without replacement.  Being a pure elementwise transform of
    pre-drawn uniforms — unlike ``rng.choice(replace=False, p=...)`` —
    it lets a block of uniforms replay per-call draws exactly.  Works on
    one call's vector or a ``(calls, buckets)`` matrix; zero-weight
    columns sort last, in index order.
    """
    with np.errstate(divide="ignore"):
        keys = np.log(u) / weights
    return np.argsort(-keys, axis=-1, kind="stable")


def _table_countries(table: CallTable) -> Tuple[List[str], np.ndarray]:
    """First-joiner countries of a table: code list + per-call index."""
    codes: List[str] = []
    index: Dict[str, int] = {}
    flat: List[int] = []
    offsets = np.zeros(len(table.configs) + 1, dtype=np.int64)
    for ci, config in enumerate(table.configs):
        for code in config.countries:
            gi = index.get(code)
            if gi is None:
                gi = len(codes)
                index[code] = gi
                codes.append(code)
            flat.append(gi)
        offsets[ci + 1] = len(flat)
    flat_arr = np.asarray(flat, dtype=np.int64)
    per_call = (
        flat_arr[offsets[table.config_idx] + table.first_joiner_idx]
        if len(table)
        else np.zeros(0, dtype=np.int64)
    )
    return codes, per_call


def _segments(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For segment lengths ``counts``: each element's segment and its
    position within it."""
    owner = np.repeat(np.arange(len(counts)), counts)
    ends = np.cumsum(counts)
    return owner, np.arange(len(owner)) - np.repeat(ends - counts, counts)


def _bucket_ids(
    tracker: "_CapacityTracker", buckets: Sequence[Sequence[Tuple[str, str]]]
) -> np.ndarray:
    """Per-country (dc, option) bucket lists as ``2 * dc + internet``
    ids, one row per country, ``-1``-padded."""
    ids = np.full((len(buckets), max(len(b) for b in buckets)), -1, dtype=np.int16)
    for row, keys in zip(ids, buckets):
        row[: len(keys)] = [2 * tracker.dc_index[dc] + (opt == INTERNET) for dc, opt in keys]
    return ids


class _Profile:
    """Resource needs of a table's configs against the tracker's limits.

    Config ``c`` needs ``cores[c]`` of compute and, for each participant
    country ``q`` in ``first[c]:first[c + 1]``, ``bandwidth[q]`` Gbps on
    the pair of Internet row ``member[q]`` and its DC.  Resources are
    numbered DCs first, then (country row, DC) pairs; ``limit`` is each
    one's cap plus the admission slack (1e-9 cores, 1e-12 Gbps).
    """

    def __init__(self, tracker: "_CapacityTracker", configs: Sequence[CallConfig]) -> None:
        self.cores = np.asarray([c.compute_cores() for c in configs], dtype=float)
        self.first = np.zeros(len(configs) + 1, dtype=np.int64)
        np.cumsum([len(c.countries) for c in configs], out=self.first[1:])
        self.member = np.asarray(
            [tracker.country_row(code) for c in configs for code in c.countries], dtype=np.int64
        )
        self.bandwidth = np.asarray(
            [c.country_bandwidth_gbps(code) for c in configs for code in c.countries], dtype=float
        )
        self.compute_limit = tracker._caps + 1e-9
        pair_limit = tracker._pair_caps + 1e-12
        self.member_limit = pair_limit[self.member]
        self.limit = np.concatenate((self.compute_limit, pair_limit.ravel()))

    def participants(self, cfg: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per participant of calls ``cfg``: its call and its index ``q``."""
        owner, rank = _segments(self.first[cfg + 1] - self.first[cfg])
        return owner, self.first[cfg][owner] + rank

    def open_buckets(self, used: np.ndarray) -> np.ndarray:
        """Which bucket ids have room for one call of each config, given
        the ``used`` amount of every resource: compute headroom at the
        DC and, for an Internet bucket, headroom on every participant's
        pair.  A last, always-shut column is what the ``-1`` padding of
        candidate lists indexes."""
        dcs = len(self.compute_limit)
        room = used[:dcs] + self.cores[:, None] <= self.compute_limit
        member_used = used[dcs:].reshape(-1, dcs)[self.member]
        blocked = member_used + self.bandwidth[:, None] > self.member_limit
        bucket_open = np.zeros((len(room), 2 * dcs + 1), dtype=bool)
        bucket_open[:, 0 : 2 * dcs : 2] = room
        bucket_open[:, 1 : 2 * dcs : 2] = room & ~np.logical_or.reduceat(
            blocked, self.first[:-1], axis=0
        )
        return bucket_open


def _first_refuted(limit, used, bucket, planned, cores, owner, pair, gbps):
    """Check a speculated placement of calls in call order.

    Call ``k`` sits on bucket ``bucket[k]`` (``2 * dc + internet``) and
    adds ``cores[k]`` to its DC's compute and, on an Internet bucket,
    ``gbps[q]`` to the pair resource ``pair[q] + dc`` of each of its
    participants ``q`` (``owner[q] == k``).  The usage a call sees is
    ``used`` plus the adds of the calls before it, summed in call
    order; only resources whose total could reach their ``limit`` are
    summed exactly — one row each, columns in call order, so the
    row-wise ``cumsum`` gives the same doubles a per-call loop sums.
    Overflow calls (not ``planned``) add load unchecked.

    Returns the first call whose placement is over a limit under the
    usage it sees (``len(bucket)`` if none is), and that usage.
    """
    calls = len(bucket)
    dc = bucket >> 1
    net = (bucket & 1)[owner] == 1
    resource = np.concatenate((dc, pair[net] + dc[owner[net]]))
    call = np.concatenate((np.arange(calls), owner[net]))
    amount = np.concatenate((cores, gbps[net]))
    # Sums in any order differ from the call-order sums by far less
    # than this margin, so every other resource stays under its limit.
    total = used + np.bincount(resource, amount, minlength=len(limit))
    tight = np.flatnonzero(total * (1.0 + 1e-9) > limit - 1e-9 * np.abs(limit))
    k = calls
    if len(tight):
        row = np.full(len(limit), -1)
        row[tight] = np.arange(len(tight))
        kept = np.flatnonzero(row[resource] >= 0)
        event_row, event_call = row[resource[kept]], call[kept]
        add = np.zeros((len(tight), calls + 1))
        add[:, 0] = used[tight]
        add[event_row, event_call + 1] = amount[kept]
        seen = np.cumsum(add, axis=1)[event_row, event_call + 1]
        checked = (kept >= calls) | planned[event_call]
        refuted = event_call[checked & (seen > limit[tight][event_row])]
        if len(refuted):
            k = int(refuted.min())
    # Compute events come first, then Internet events, each in call
    # order, so ``np.add.at`` adds every resource's events in call order.
    before = call < k
    used = used.copy()
    np.add.at(used, resource[before], amount[before])
    return k, used


class _CapacityTracker:
    """Concurrent compute usage per (DC, slot) and Internet Gbps per
    (country, DC, slot) — what first-joiner baselines check before
    admitting a call to a bucket.

    Usage lives in dense ``(dc, slot)`` / ``(country, dc, slot)``
    arrays (grown geometrically along the slot axis) indexed by the
    scenario's DC and country order; capacity caps are snapshotted at
    construction.  A participant country outside the scenario's list
    gets its Internet row (and caps) on first sight.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.dc_codes = list(scenario.dc_codes)
        self.dc_index = {dc: i for i, dc in enumerate(self.dc_codes)}
        self.country_index = {c: i for i, c in enumerate(scenario.country_codes)}
        self._caps = np.asarray(
            [scenario.compute_caps[dc] for dc in self.dc_codes], dtype=float
        )
        self._pair_caps = np.asarray(
            [
                [scenario.internet_cap_gbps(country, dc) for dc in self.dc_codes]
                for country in scenario.country_codes
            ],
            dtype=float,
        ).reshape(len(scenario.country_codes), len(self.dc_codes))
        self._slots = 64
        self._compute = np.zeros((len(self.dc_codes), self._slots))
        self._internet = np.zeros(
            (len(scenario.country_codes), len(self.dc_codes), self._slots)
        )

    def reserve(self, slots: int) -> None:
        """Pre-grow the slot axis (one resize instead of many)."""
        if slots <= self._slots:
            return
        new = self._slots
        while new < slots:
            new *= 2
        compute = np.zeros((self._compute.shape[0], new))
        compute[:, : self._slots] = self._compute
        internet = np.zeros(self._internet.shape[:2] + (new,))
        internet[:, :, : self._slots] = self._internet
        self._compute, self._internet, self._slots = compute, internet, new

    def country_row(self, code: str) -> int:
        """The Internet row of a participant country."""
        row = self.country_index.get(code)
        if row is None:
            row = self.country_index[code] = len(self._pair_caps)
            caps = [self.scenario.internet_cap_gbps(code, dc) for dc in self.dc_codes]
            self._pair_caps = np.vstack([self._pair_caps, caps])
            self._internet = np.concatenate(
                [self._internet, np.zeros((1,) + self._internet.shape[1:])]
            )
        return row

    def admit(
        self, table: CallTable, candidates: Callable[[int, int], np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Admit a table's calls in row order.

        Each call takes the first bucket of its candidate list with
        compute headroom at its start slot (and, for an Internet bucket,
        Internet headroom for every participant country) and holds it
        over ``[start, end)``; a call with no such bucket overflows onto
        the first DC's WAN.  ``candidates(lo, hi)`` returns the bucket
        ids (``2 * dc + internet``, ``-1``-padded) of rows ``[lo, hi)``,
        in try order.  Returns per-call DC and option indices and the
        number of overflowed (unplanned) calls.
        """
        n = len(table)
        profile = _Profile(self, table.configs)
        self.reserve(int(table.end_slot.max()))
        dc = np.zeros(n, dtype=np.int64)
        internet = np.zeros(n, dtype=np.int64)
        planned = np.zeros(n, dtype=bool)
        starts = table.start_slot
        cuts = (np.flatnonzero(starts[1:] != starts[:-1]) + 1).tolist()
        for lo, hi in zip([0] + cuts, cuts + [n]):
            for a in range(lo, hi, _ADMIT_WINDOW):
                b = min(a + _ADMIT_WINDOW, hi)
                run = slice(a, b)
                dc[run], internet[run], planned[run] = self._admit_run(
                    table.config_idx[run], int(starts[a]), candidates(a, b), profile
                )
                self._commit(table, run, dc[run], internet[run], profile)
        return dc, internet, int(n - planned.sum())

    def _admit_run(self, cfg, slot, cand, profile):
        """Admit calls of configs ``cfg`` that all start at ``slot``.

        Speculates every call onto its first bucket open under the
        usage before the first of them and checks that in call order
        (:func:`_first_refuted`).  The first call the check refutes
        sees the exact usage of the calls before it, so speculating
        afresh from that call under that usage places it for sure.
        """
        calls, dcs = len(cfg), len(self.dc_codes)
        owner, part = profile.participants(cfg)
        pair = dcs + profile.member[part] * dcs
        gbps = profile.bandwidth[part]
        cores = profile.cores[cfg]
        # Candidate buckets as flat indices into ``open_buckets``' matrix
        # (``-1`` padding lands on each row's always-shut last column).
        width = 2 * dcs + 1
        flat = cfg[:, None] * width + cand % width
        used = np.concatenate((self._compute[:, slot], self._internet[:, :, slot].ravel()))
        bucket = np.zeros(calls, dtype=np.int64)
        planned = np.zeros(calls, dtype=bool)
        a = 0
        while a < calls:
            b = min(a + _HORIZON, calls)
            fits = profile.open_buckets(used).ravel()[flat[a:b]]
            first_fit = np.arange(0, fits.size, fits.shape[1]) + fits.argmax(axis=1)
            planned[a:b] = fits.ravel()[first_fit]
            bucket[a:b] = np.where(planned[a:b], cand[a:b].ravel()[first_fit], 0)
            lo, hi = np.searchsorted(owner, [a, b])
            k, used = _first_refuted(
                profile.limit, used, bucket[a:b], planned[a:b], cores[a:b],
                owner[lo:hi] - a, pair[lo:hi], gbps[lo:hi],
            )
            a += k
        return bucket >> 1, bucket & 1, planned

    def _commit(self, table, run, dc, on_net, profile) -> None:
        """Add a run's admissions over each call's ``[start, end)``.

        ``np.add.at`` adds unbuffered in index order, i.e. call by call,
        so every cell accumulates the same doubles as a per-call loop.
        """
        cfg = table.config_idx[run]
        duration = table.duration_slots[run]
        slot = int(table.start_slot[run.start])
        call, offset = _segments(duration)
        np.add.at(self._compute, (dc[call], slot + offset), profile.cores[cfg][call])
        net_calls = np.flatnonzero(on_net)
        owner, part = profile.participants(cfg[net_calls])
        event, offset = _segments(duration[net_calls][owner])
        np.add.at(
            self._internet,
            (profile.member[part][event], dc[net_calls][owner][event], slot + offset),
            profile.bandwidth[part][event],
        )


def _intra_country_guess(country: str, media: str) -> CallConfig:
    """The controller's working assumption for a brand-new call.

    "For a new call, we assume it as an intra-country call (such calls
    are in majority)" — the reduced intra-country config has a single
    participant (§6.2).
    """
    return CallConfig(((country, 1),), media)


class TitanNextController:
    """The §6.4 real-time controller over an offline precomputed plan."""

    def __init__(
        self,
        scenario: Scenario,
        plan: OfflinePlan,
        seed: int = 53,
        slots_per_day: int = 48,
        reduce_configs: bool = True,
    ) -> None:
        """``reduce_configs`` selects the planning key: reduced call
        configs (§6.2, the default) or raw call configs (the Table 4
        ablation that inflates migrations)."""
        self.scenario = scenario
        self.plan = plan
        self.rng = np.random.default_rng(seed)
        self.slots_per_day = slots_per_day
        self.reduce_configs = reduce_configs
        self.stats = ControllerStats()
        self._fallback_cache: Dict[str, Tuple[str, str]] = {}
        #: State created on the first non-empty ``process_table`` call
        #: and carried across calls so successive tables behave like one
        #: continuous stream: the quota snapshot, the buffered uniform
        #: reader, and the per-country most-recent plan keys ("we pick
        #: the most recently used reduced call config based on the
        #: country of the first joiner", §6.4).
        self._quota_index: Optional[QuotaIndex] = None
        self._uniform_stream: Optional[_UniformStream] = None
        self._recent_key: Dict[str, int] = {}

    def _plan_key(self, config: CallConfig) -> CallConfig:
        return config.reduced() if self.reduce_configs else config

    def _fallback_for_country(self, country_code: str) -> Tuple[str, str]:
        """Surge handling: nearest DC with capacity, over the WAN (§6.4)."""
        cached = self._fallback_cache.get(country_code)
        if cached is None:
            country = self.scenario.world.country(country_code)
            candidates = [self.scenario.world.dc(code) for code in self.scenario.dc_codes]
            nearest = self.scenario.world.nearest_dc(country.centroid, candidates)
            cached = (nearest.code, WAN)
            self._fallback_cache[country_code] = cached
        return cached

    def process_table(self, table: CallTable) -> AssignmentBatch:
        """Assign a whole trace table: initial placement at first join,
        reconciliation at config reveal.

        Per call, in row order: the guesses are the most recently seen
        planning config of the first joiner's country, then its
        intra-country configs in :data:`GUESS_MEDIA` order; the first
        guess whose (slot, config) entry has a live bucket is drawn
        from (weighted by remaining quota) and charged one unit.  No
        live guess means the §6.4 surge path: nearest DC over the WAN,
        counted unplanned.  At reveal, a wrong guess refunds its unit
        and the call draws from its true config's entry (if live),
        migrating when that lands elsewhere.  Quota accounting runs on
        the controller's :class:`~repro.core.plan.QuotaIndex` snapshot;
        the snapshot, the uniform stream and the per-country recent
        configs carry over between calls.
        """
        n = len(table)
        if n == 0:
            return _empty_batch(table, self.scenario.dc_codes)
        if self._quota_index is None:
            self._quota_index = QuotaIndex(self.plan, self.scenario.dc_codes)
            self._uniform_stream = _UniformStream(self.rng)
        index = self._quota_index
        stream = self._uniform_stream
        assert stream is not None

        codes, country = _table_countries(table)
        slot = (table.start_slot % self.slots_per_day).astype(np.int32)
        true_key = np.asarray(
            [index.key(self._plan_key(c)) for c in table.configs], dtype=np.int32
        )[table.config_idx]
        # Guesses: the true key of the previous call from the same
        # first-joiner country (the carried one for its first call),
        # then that country's intra-country keys not already tried.
        by_country = np.argsort(country, kind="stable")
        grouped = country[by_country]
        head = np.r_[True, grouped[1:] != grouped[:-1]]
        tail = np.r_[head[1:], True]
        guesses = np.empty((n, 1 + len(GUESS_MEDIA)), dtype=np.int32)
        previous = np.r_[-1, true_key[by_country[:-1]]]
        previous[head] = [self._recent_key.get(codes[c], -1) for c in grouped[head].tolist()]
        guesses[by_country, 0] = previous
        for c, key in zip(grouped[tail].tolist(), true_key[by_country[tail]].tolist()):
            self._recent_key[codes[c]] = key
        del by_country, grouped, head, tail, previous
        intra = np.asarray(
            [[index.key(_intra_country_guess(code, m)) for m in GUESS_MEDIA] for code in codes],
            dtype=np.int32,
        )
        guesses[:, 1:] = intra[country]
        guesses[:, 1:][guesses[:, 1:] == guesses[:, :1]] = -1
        guess_rows = index.rows(np.broadcast_to(slot[:, None], guesses.shape), guesses)
        true_rows = index.rows(slot, true_key)
        del guesses, true_key, slot

        initial, final = self._draw(index, stream, guess_rows, true_rows)
        del guess_rows, true_rows
        return self._placements(table, index, codes, country, initial, final)

    @staticmethod
    def _draw(index: QuotaIndex, stream: _UniformStream, guess_rows, true_rows):
        """Per call, the (row, bucket) drawn at first join and at reveal
        (``-1`` rows where there was no draw)."""
        n = len(true_rows)
        initial = np.full((2, n), -1, dtype=np.int32)
        final = np.full((2, n), -1, dtype=np.int32)
        lo = 0
        while lo < n:
            mark = stream.mark()
            live = np.r_[index.live(), False]  # row -1 (no entry) is never live
            guess_live = live[guess_rows[lo:]]
            guessed = guess_live.any(axis=1)
            first = np.arange(0, guess_live.size, guess_live.shape[1]) + guess_live.argmax(axis=1)
            row0 = guess_rows[lo:].ravel()[first]
            row0[~guessed] = -1
            del guess_live
            right = row0 == true_rows[lo:]  # same slot, so same row iff same key
            revealed = ~right & live[true_rows[lo:]]
            draws = guessed.astype(np.int32) + revealed
            offset = np.cumsum(draws, dtype=np.int64) - draws
            uniforms = stream.take(int(offset[-1] + draws[-1]))
            event_row = np.empty(len(uniforms), dtype=np.int32)
            consume = np.ones(len(uniforms), dtype=bool)
            event_row[offset[guessed]] = row0[guessed]
            consume[offset[guessed]] = right[guessed]
            event_row[offset[revealed] + guessed[revealed]] = true_rows[lo:][revealed]
            saved = index.quota.copy()
            picks = index.draw(event_row, uniforms, consume)
            stalled = np.flatnonzero(picks < 0)
            end = n - lo
            if len(stalled):
                # The first draw that met an emptied entry: every call
                # before its call stands; redo them on the saved quotas
                # and speculate afresh from that call.
                end = int(np.searchsorted(offset, stalled[0], side="right")) - 1
                keep = int(offset[end])
                index.quota = saved
                picks = index.draw(event_row[:keep], uniforms[:keep], consume[:keep])
                stream.rewind(mark)
                stream.take(keep)
            g = np.flatnonzero(guessed[:end])
            r = np.flatnonzero(revealed[:end])
            initial[0, lo + g] = row0[g]
            initial[1, lo + g] = picks[offset[g]]
            final[0, lo + r] = true_rows[lo + r]
            final[1, lo + r] = picks[offset[r] + guessed[r]]
            lo += end
        return initial, final

    def _placements(self, table, index, codes, country, initial, final) -> AssignmentBatch:
        """Turn the drawn (row, bucket) pairs into an
        :class:`AssignmentBatch` and count the controller's stats."""
        planned = initial[0] >= 0
        moved = final[0] >= 0
        fallback = [index.dc_codes.index(self._fallback_for_country(code)[0]) for code in codes]
        initial_dc = np.asarray(fallback, dtype=np.int64)[country]
        initial_opt = np.zeros(len(table), dtype=np.int64)  # the fallback rides the WAN
        rows, picks = initial[:, planned]
        initial_dc[planned] = index.bucket_dc[rows, picks]
        initial_opt[planned] = index.bucket_option[rows, picks]
        final_dc = initial_dc.copy()
        final_opt = initial_opt.copy()
        rows, picks = final[:, moved]
        final_dc[moved] = index.bucket_dc[rows, picks]
        final_opt[moved] = index.bucket_option[rows, picks]

        self.stats.calls += len(table)
        self.stats.unplanned += int(np.count_nonzero(~planned))
        self.stats.dc_migrations += int(np.count_nonzero(final_dc != initial_dc))
        self.stats.option_migrations += int(np.count_nonzero(final_opt != initial_opt))

        # Plan-only DCs (absent from the scenario) are listed after the
        # scenario's, in the order this table's draws first reach them.
        dc_codes = list(self.scenario.dc_codes)
        base = len(dc_codes)
        if len(index.dc_codes) > base:
            reached = np.column_stack(
                (np.where(planned, initial_dc, -1), np.where(moved, final_dc, -1))
            ).ravel()
            extra, first_seen = np.unique(reached[reached >= base], return_index=True)
            extra = extra[np.argsort(first_seen)]
            local = np.arange(len(index.dc_codes))
            local[extra] = base + np.arange(len(extra))
            initial_dc, final_dc = local[initial_dc], local[final_dc]
            dc_codes += [index.dc_codes[d] for d in extra]
        return AssignmentBatch(table, initial_dc, initial_opt, final_dc, final_opt, dc_codes)


class FirstJoinerWrr:
    """Capacity-tracked WRR over (DC, option) buckets (§8.1(1))."""

    name = "wrr"

    def __init__(self, scenario: Scenario, seed: int = 59) -> None:
        self.scenario = scenario
        self.rng = np.random.default_rng(seed)
        self.tracker = _CapacityTracker(scenario)
        self.stats = ControllerStats()
        self._bucket_cache: Dict[str, Tuple[List[Tuple[str, str]], np.ndarray]] = {}

    def _buckets(self, country: str) -> Tuple[List[Tuple[str, str]], np.ndarray]:
        """WRR buckets for a country: (dc, option) keys + weights."""
        cached = self._bucket_cache.get(country)
        if cached is None:
            total_cores = sum(self.scenario.compute_caps[dc] for dc in self.scenario.dc_codes)
            keys: List[Tuple[str, str]] = []
            weights: List[float] = []
            for dc in self.scenario.dc_codes:
                share = self.scenario.compute_caps[dc] / total_cores
                fraction = self.scenario.internet_fraction(country, dc)
                if fraction > 0:
                    keys.append((dc, INTERNET))
                    weights.append(share * fraction)
                keys.append((dc, WAN))
                weights.append(share * (1.0 - fraction))
            cached = (keys, np.asarray(weights))
            self._bucket_cache[country] = cached
        return cached

    def process_table(self, table: CallTable) -> AssignmentBatch:
        """Each call draws one uniform per bucket of its first joiner's
        country and tries the buckets in that weighted-random
        (Efraimidis–Spirakis) order, taking the first with capacity;
        with none, it overflows onto the first DC's WAN."""
        n = len(table)
        tracker = self.tracker
        if n == 0:
            return _empty_batch(table, tracker.dc_codes)
        codes, country = _table_countries(table)
        buckets = [self._buckets(code) for code in codes]
        ids = _bucket_ids(tracker, [keys for keys, _ in buckets])
        weights = np.zeros(ids.shape)
        for row, (_, w) in zip(weights, buckets):
            row[: len(w)] = w
        real = ids >= 0

        def candidates(lo: int, hi: int) -> np.ndarray:
            rows = country[lo:hi]
            u = np.full((hi - lo, ids.shape[1]), 0.5)  # padding: weight 0 sorts last
            mask = real[rows]
            u[mask] = self.rng.random(int(np.count_nonzero(mask)))
            return np.take_along_axis(ids[rows], weighted_shuffle_order(u, weights[rows]), axis=1)

        dc, internet, unplanned = tracker.admit(table, candidates)
        self.stats.calls += n
        self.stats.unplanned += unplanned
        return AssignmentBatch(table, dc, internet, dc.copy(), internet.copy(), tracker.dc_codes)


class FirstJoinerLf:
    """Latency-sorted buckets, first with capacity (§8.1(2))."""

    name = "lf"

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.tracker = _CapacityTracker(scenario)
        self.stats = ControllerStats()
        self._bucket_cache: Dict[str, List[Tuple[str, str]]] = {}

    def _sorted_buckets(self, country: str) -> List[Tuple[str, str]]:
        cached = self._bucket_cache.get(country)
        if cached is None:
            buckets = []
            for dc in self.scenario.dc_codes:
                buckets.append(((dc, WAN), self.scenario.one_way_ms(country, dc, WAN)))
                if self.scenario.internet_fraction(country, dc) > 0:
                    buckets.append(
                        ((dc, INTERNET), self.scenario.one_way_ms(country, dc, INTERNET))
                    )
            buckets.sort(key=lambda kv: kv[1])
            cached = [key for key, _ in buckets]
            self._bucket_cache[country] = cached
        return cached

    def process_table(self, table: CallTable) -> AssignmentBatch:
        """Each call tries its first joiner's country's buckets in
        latency order, taking the first with capacity; with none, it
        overflows onto the first DC's WAN (LF draws no randomness)."""
        n = len(table)
        tracker = self.tracker
        if n == 0:
            return _empty_batch(table, tracker.dc_codes)
        codes, country = _table_countries(table)
        ids = _bucket_ids(tracker, [self._sorted_buckets(code) for code in codes])
        dc, internet, unplanned = tracker.admit(table, lambda lo, hi: ids[country[lo:hi]])
        self.stats.calls += n
        self.stats.unplanned += unplanned
        return AssignmentBatch(table, dc, internet, dc.copy(), internet.copy(), tracker.dc_codes)


class FirstJoinerTitan:
    """Weighted-random DC by cores, random routing by fraction (§8.1(3))."""

    name = "titan"

    def __init__(self, scenario: Scenario, seed: int = 61) -> None:
        self.scenario = scenario
        self.rng = np.random.default_rng(seed)
        self.stats = ControllerStats()
        total = sum(scenario.compute_caps[dc] for dc in scenario.dc_codes)
        self._cum_probs = np.cumsum(
            [scenario.compute_caps[dc] / total for dc in scenario.dc_codes]
        )

    def process_table(self, table: CallTable) -> AssignmentBatch:
        """Per call, two uniforms: one picks the DC by its share of
        cores, the other routes over the Internet with the pair's Titan
        fraction.  Fully vectorized — one uniform block, one
        ``searchsorted`` for the DC draws, one fraction-table gather
        for the routing draws."""
        n = len(table)
        scenario = self.scenario
        dc_codes = tuple(scenario.dc_codes)
        if n == 0:
            return _empty_batch(table, dc_codes)
        codes, country_of_call = _table_countries(table)
        uniforms = self.rng.random(2 * n)
        dc_idx = np.minimum(
            np.searchsorted(self._cum_probs, uniforms[0::2], side="right"),
            len(dc_codes) - 1,
        ).astype(np.int64)
        fractions = np.asarray(
            [[scenario.internet_fraction(code, dc) for dc in dc_codes] for code in codes]
        )
        option_idx = (uniforms[1::2] < fractions[country_of_call, dc_idx]).astype(np.int64)
        self.stats.calls += n
        return AssignmentBatch(
            table, dc_idx, option_idx, dc_idx.copy(), option_idx.copy(), dc_codes
        )
