"""Monotone black-box transformations.

Each transformation is a kernel, `kernel(bb)`. It takes only an
instrumented black box centred at the evaluated input: the input is the
box's center index, `bb.hamming_center`. It returns an allocation that is a
coordinatewise subset of some queried allocation, hence feasible by
downward closure. Wherever a step says to pick among several qualifying
allocations, the scan is canonical and deterministic: candidate inputs are
enumerated by ascending flipped-position combinations, then ascending
replacement levels, and the first qualifying allocation is adopted.

Available transformations, by id (`TRANSFORMATIONS` maps each to its kernel
and the number of ladder values it takes; a `TransformedRule` refuses any
other ladder when it is built):

- "const":    any ladder; return the allocation at the all-lowest input,
              whatever the center is.
- "two":      two-value ladder; secure a 1 on a high position (searching up
              to Hamming distance 2), then zero out the low positions.
- "two-plus": two-value ladder; upgrade toward allocations with more 1s on
              high positions, and zero a low position only after an upgrade
              or on a per-position conflict with the provisional allocation
              at the raised neighbor. Preserves full welfare on more inputs.
- "multi":    three-value ladder; staged upgrade scans at growing Hamming
              distances, then zero out everything below the allocation's
              top attained value class. The scan table extrapolated to
              k >= 4 is not monotone.
- "identity": any ladder; pass-through (query once, return the answer); a
              harness convenience for verifying raw algorithms.

The scans run on integers: an Allocation is stored as its bitmask (bit i
for agent i), and an input is its index, the sum of level_i * k**i
(`input_index`), which on a two-value ladder is the bitmask of its high
positions. The kernels query the black box with indices, reuse answers
through its `known` mapping (index to Allocation), keep derived allocations
in its `memo` and build each result with `Allocation.from_mask`. The box
holds the algorithm's answers and alone decides whether `known` and `memo`
outlive an evaluation. The black box sees the same queries in the same
order as a scan over vectors.

The two-value kernels reach neighbours through XOR masks per (n, distance)
(`_flips`), which are the neighbours of index 0, so `_neighbours` is the one
index-level generator of the canonical scan order. `multi` reads one center
record per evaluation while k**n <= 65536. A record is keyed on (n, k,
center index) and holds everything about the center that no answer
changes: its positions at or above each level (`_at_or_above`, from which
each level's positions are one XOR) and its scan plans. A plan holds the
center's neighbour indices at one exact distance, in canonical order, as an
array of 16-bit indices. Records hold geometry only, never answers, so
every rule over the same (n, k) shares them. A record is built on its
center's first evaluation, and each plan in it on the center's first scan
at that distance. MAX_PLAN_INDICES caps the entries, masks and indices,
kept over all records. Past the cap, and on larger input spaces, an
evaluation derives its masks again and scans the same neighbours from a
one-off iterator, keeping nothing.
"""

from __future__ import annotations

import functools
import itertools
from array import array
from math import comb
from typing import Callable, Iterable, Iterator

from .blackbox import Algorithm, InstrumentedBlackBox
from .errors import DimensionError, ParameterError
from .model import Allocation, ValuationVector, index_within, input_weights


def inputs_at_distance(v: ValuationVector, distance: int, k: int) -> Iterator[ValuationVector]:
    """All inputs at exact Hamming distance `distance` from v, canonical order.

    Position combinations ascend lexicographically; within a combination,
    replacement level tuples ascend lexicographically over the levels that
    differ from v's.
    """
    levels = v.levels
    n = len(levels)
    for combo in itertools.combinations(range(n), distance):
        alternatives = [[lv for lv in range(k) if lv != levels[i]] for i in combo]
        for replacement in itertools.product(*alternatives):
            new = list(levels)
            for i, lv in zip(combo, replacement):
                new[i] = lv
            yield ValuationVector(tuple(new))


def t_const(bb: InstrumentedBlackBox) -> Allocation:
    """Return the allocation at the all-lowest input, independent of the center.

    Exactly one query per call. Keeps a low/high fraction of the
    approximation ratio for any algorithm.
    """
    return bb.query(0)


@functools.cache
def _flips(n: int, distance: int) -> tuple[int, ...]:
    # XOR masks of the two-value neighbours at this distance: on two values
    # the neighbours of index 0 are exactly the masks, in canonical order.
    return tuple(_neighbours(n, 2, 0, distance))


def _restrict(x: Allocation, keep: int) -> Allocation:
    """x with its 1s outside `keep` cleared; x itself if it has none."""
    return Allocation.from_mask(x.n, x.mask & keep) if x.mask & ~keep else x


def t_two(bb: InstrumentedBlackBox) -> Allocation:
    """Two-value transformation at the center v; queries stay within Hamming
    distance 2 of v.

    1. If the allocation at v has a 1 on a high position, zero out the low
       positions and return it.
    2. Otherwise scan inputs at distance 1 (canonical order); adopt the first
       allocation with a 1 on a high position of v, zero the lows, return.
    3. Otherwise do the same at distance 2.
    4. Otherwise return the allocation at v unchanged.
    """
    high = bb.hamming_center
    x = bb.query(high)
    # Without a high position no candidate can qualify: the scans are skipped.
    if high and not x.mask & high:
        for flip in itertools.chain(_flips(bb.n, 1), _flips(bb.n, 2)):
            candidate = bb.query(high ^ flip)
            if candidate.mask & high:
                x = candidate
                break
    return _restrict(x, high) if x.mask & high else x


def t_two_plus(bb: InstrumentedBlackBox) -> Allocation:
    """Two-value transformation at the center v, preserving full welfare on a
    1/n input fraction.

    1. If the allocation at v has a 1 on a high position, adopt the first
       adjacent input's allocation that yields strictly more 1s on high
       positions of v, if any.
    2. Simulate step 1 for inputs at distance 1 and 2 (memoized, on demand).
    3. If the allocation is still without a 1 on a high position, adopt the
       first distance-1 simulated allocation that yields one.
    4. Failing that, the first distance-2 simulated allocation that yields one.
    5. If the current allocation has strictly more 1s on high positions than
       the original, zero out all low positions.
    6. Simulate steps 1-5 at every adjacent input: provisional allocations.
    7. Zero a remaining 1 on a low position i only if the provisional
       allocation at the input with position i raised has a 0 at i.

    Queries stay within Hamming distance 5 of v. An input u is the bitmask
    of its high positions, so `mask & u` keeps an allocation's 1s on them.
    The box's `memo` keeps step 1's allocation at u and steps 1-5's at ~u:
    each is a pure function of the algorithm, so reusing it across
    evaluations returns the identical allocation.
    """
    adjacent = _flips(bb.n, 1)
    near = adjacent + _flips(bb.n, 2)
    known = bb.known
    memo = bb.memo

    def first_pass(u: int) -> Allocation:
        x = memo.get(u)
        if x is not None:
            return x
        x = known.get(u) or bb.query(u)
        hc = (x.mask & u).bit_count()
        if hc:
            for flip in adjacent:
                w = u ^ flip
                candidate = known.get(w) or bb.query(w)
                if (candidate.mask & u).bit_count() > hc:
                    x = candidate
                    break
        memo[u] = x
        return x

    def provisional(u: int) -> Allocation:
        x = memo.get(~u)
        if x is not None:
            return x
        original = (known.get(u) or bb.query(u)).mask
        x = first_pass(u)
        if not x.mask & u:
            # Distance 1, then distance 2: the first with a 1 on a high position.
            for flip in near:
                candidate = first_pass(u ^ flip)
                if candidate.mask & u:
                    x = candidate
                    break
        if (x.mask & u).bit_count() > (original & u).bit_count():
            x = _restrict(x, u)
        memo[~u] = x
        return x

    high = bb.hamming_center
    x = provisional(high)
    kept = x.mask
    for bit in adjacent:
        if bit & x.mask & ~high and not provisional(high | bit).mask & bit:
            kept ^= bit
    return _restrict(x, kept)


# (distance, source classes, target class): step j scans distance j. The
# first step (no sources) adopts any allocation of a strictly higher class;
# each later one upgrades an allocation of a source class to the target
# class. The sources for the high target come in the order any-below, mid, low.
_SCAN_STEPS = (
    (1, None, None),
    (2, frozenset({0}), 1),
    (3, frozenset({0, 1}), 2),
    (4, frozenset({1}), 2),
    (5, frozenset({0}), 2),
)

# The most entries kept in all center records together: each record's k + 1
# masks and its plans' neighbour indices. The plans are 16-bit arrays, so
# the cap is about 2 MB of indices; it holds every record at n=6, k=3
# (729 * 4 masks and 484 056 indices).
MAX_PLAN_INDICES = 1 << 20


class _ScanPlans:
    """`multi`'s kept center records (see the module docstring), as
    `plans[n, k][center]`, and `kept`, the number of entries they hold in
    all: each record's masks and its plans' indices. One store serves every
    rule in the process."""

    def __init__(self) -> None:
        self.plans: dict[tuple[int, int], dict[int, list]] = {}
        self.kept = 0


_SCAN_PLANS = _ScanPlans()


def _neighbours(n: int, k: int, center: int, distance: int) -> Iterator[int]:
    """The indices at exact Hamming distance `distance` from `center`, in
    `inputs_at_distance` order, as a one-off iterator."""
    deltas = []
    for w in input_weights(n, k):
        lvl = center // w % k
        deltas.append([(lv - lvl) * w for lv in range(k) if lv != lvl])
    combos = itertools.starmap(itertools.product, itertools.combinations(deltas, distance))
    return map(center.__add__, map(sum, itertools.chain.from_iterable(combos)))


def _at_or_above(n: int, k: int, center: int) -> tuple[int, ...]:
    """ge[c]: the positions of the input `center` at level c or above, for c
    in 0..k (ge[k] is empty). Its level-c positions are ge[c] ^ ge[c + 1] and
    the positions above level c are ge[c + 1]."""
    ge = [0] * (k + 1)
    for i, w in enumerate(input_weights(n, k)):
        ge[center // w % k] |= 1 << i
    for c in range(k - 1, 0, -1):
        ge[c - 1] |= ge[c]
    return tuple(ge)


def _record(n: int, k: int, center: int) -> list | None:
    """`center`'s kept record: built on its first evaluation while
    k**n <= 65536 and the kept entries stay within MAX_PLAN_INDICES, else
    None. record[0] is its `_at_or_above` masks and record[d], for
    1 <= d <= n, its plan at distance d, None until its first scan there.
    Built from the center index, never from a caller's levels, so every
    rule may trust it."""
    store = _SCAN_PLANS
    by_center = store.plans.get((n, k))
    if by_center is None:
        if k**n > 1 << 16:
            return None
        by_center = store.plans[n, k] = {}
    record = by_center.get(center)
    if record is None and store.kept + k + 1 <= MAX_PLAN_INDICES:
        record = by_center[center] = [_at_or_above(n, k, center), *[None] * n]
        store.kept += k + 1
    return record


def _scan_plan(n: int, k: int, center: int, distance: int) -> Iterable[int]:
    """`_neighbours(n, k, center, distance)`: the plan in the center's kept
    record, else built and kept there on this first scan as long as the
    kept entries stay within MAX_PLAN_INDICES, else (or without a record)
    the one-off iterator."""
    if distance > n:
        return ()
    record = _record(n, k, center)
    if record is None:
        return _neighbours(n, k, center, distance)
    plan = record[distance]
    if plan is None:
        size = comb(n, distance) * (k - 1) ** distance
        if _SCAN_PLANS.kept + size > MAX_PLAN_INDICES:
            return _neighbours(n, k, center, distance)
        plan = record[distance] = array("H", _neighbours(n, k, center, distance))
        _SCAN_PLANS.kept += size
    return plan


def _top_class(mask: int, ge: tuple[int, ...]) -> int:
    """The highest level c at which the allocation `mask` has a 1 on a
    position of the input's level c or above (`ge[c]`, `_at_or_above`); the
    empty allocation counts as the lowest class: it is neither a high- nor
    a mid-class allocation."""
    c = len(ge) - 2
    while c and not mask & ge[c]:
        c -= 1
    return c


def t_multi(bb: InstrumentedBlackBox) -> Allocation:
    """Three-value ladder transformation (k = 3) at the center v.

    Runs five staged upgrade scans, each one Hamming distance further out,
    then zeroes out every position whose level is strictly below the
    allocation's top attained class. Scans whose target class does not
    appear in v are skipped: no candidate could qualify. Queries stay within
    Hamming distance 5 of v.

    An input is its index (agent i has weight k**i). The center's geometry,
    its masks by level and its plan at each distance, comes from one lookup
    of its kept record (`_record`); past the cap, and on larger input
    spaces, it is derived for this evaluation alone (`_at_or_above`,
    `_scan_plan`). Answers are reused through the box's `known` mapping:
    when the box reuses its answers, only inputs no evaluation has asked
    are queried.
    """
    n = bb.n
    k = bb.k
    known = bb.known
    query = bb.query
    index = bb.hamming_center
    record = _record(n, k, index)
    ge = _at_or_above(n, k, index) if record is None else record[0]

    # An Allocation is never falsy, so `or` queries only on a miss.
    x = known.get(index) or query(index)
    cls = _top_class(x.mask, ge)
    for distance, sources, target in _SCAN_STEPS:
        if distance > n:
            break  # no input is that far, nor farther
        # Adopt the first candidate with a 1 in `want` and none in `reject`.
        if sources is None:
            want, reject = ge[cls + 1], 0
        elif cls in sources:
            want, reject = ge[target] ^ ge[target + 1], ge[target + 1]
        else:
            continue
        if not want:
            continue
        # A plan within n is never empty, so `or` builds or derives one only
        # when the record holds none.
        for u in (record and record[distance]) or _scan_plan(n, k, index, distance):
            candidate = known.get(u) or query(u)
            cmask = candidate.mask
            if cmask & want and not cmask & reject:
                x = candidate
                cls = _top_class(cmask, ge)
                break
    return _restrict(x, ge[cls])


# One row per transformation id: its kernel, called as kernel(bb) on a box
# centred at the evaluated input, and the number of ladder values it takes
# (None: any). TransformedRule refuses any other ladder when it is built, so
# the kernels do not check it.
TRANSFORMATIONS: dict[str, tuple[Callable[[InstrumentedBlackBox], Allocation], int | None]] = {
    "const": (t_const, None),
    "two": (t_two, 2),
    "two-plus": (t_two_plus, 2),
    # The scan table extrapolated to k >= 4 is not monotone (k=4, n=2 has a witness).
    "multi": (t_multi, 3),
    # One query at the center, answered unchanged.
    "identity": (lambda bb: bb.query(bb.hamming_center), None),
}
TRANSFORMATION_IDS = tuple(TRANSFORMATIONS)


class TransformedRule:
    """An allocation rule: a transformation bound to a black-boxed algorithm.

    The rule owns one InstrumentedBlackBox, which applies the per-evaluation
    query budget and optional Hamming-radius restriction. A call takes an
    input index, as the verifiers pass (`verify._evaluate`), or a vector,
    as direct calls and `CachedRule` pass. A vector's index is computed
    once, refusing an input of another length (DimensionError) or with a
    level off the ladder (ParameterError); `recenter` refuses an index
    outside [0, k**n) (ParameterError). Every evaluation re-centres the box
    at the index, makes one kernel call and updates query statistics from
    the box. `env` is the algorithm's environment. The box holds the
    algorithm's answers, so the algorithm runs once per distinct input per
    rule, and decides from shared_state and the limits whether its kernels
    reuse them across evaluations (see InstrumentedBlackBox). Outputs are
    identical either way. The newest rule's box also answers direct index
    calls of the algorithm, which never write to it (`Algorithm.live_box`).
    The kind's row of TRANSFORMATIONS is read once, here: a ladder it does
    not take is refused. Not thread-safe: one instance per worker.
    """

    def __init__(
        self,
        kind: str,
        algorithm: Algorithm,
        *,
        query_budget: int | None = None,
        hamming_radius: int | None = None,
        shared_state: bool = True,
        check_feasible: bool = False,
    ):
        if kind not in TRANSFORMATIONS:
            raise ParameterError(
                f"unknown transformation {kind!r}; known: {', '.join(TRANSFORMATION_IDS)}"
            )
        kernel, size = TRANSFORMATIONS[kind]
        if size is not None and algorithm.env.k != size:
            raise ParameterError(
                f"transformation {kind!r} takes {size} ladder values, got {algorithm.env.k}"
            )
        self.env = algorithm.env
        self._kernel = kernel
        self._box = InstrumentedBlackBox(
            algorithm,
            budget=query_budget,
            hamming_radius=hamming_radius,
            shared_state=shared_state,
            check_feasible=check_feasible,
        )
        self.max_queries = 0
        self.max_radius = 0

    def __call__(self, v: ValuationVector | int) -> Allocation:
        bb = self._box
        if isinstance(v, int):
            u = v  # recenter refuses an index outside [0, k**n)
        else:
            u = index_within(v.levels, bb.n, bb.k)
            if u is None:
                if v.n != bb.n:
                    raise DimensionError(f"input of length {v.n} vs n={bb.n}")
                raise ParameterError(f"input {v.levels} has a level off the {bb.k}-value ladder")
        bb.recenter(u)
        out = self._kernel(bb)
        self.max_queries = max(self.max_queries, len(bb.log))
        self.max_radius = max(self.max_radius, bb.max_radius)
        return out
