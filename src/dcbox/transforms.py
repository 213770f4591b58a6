"""Monotone black-box transformations.

Each transformation consumes an instrumented black box and one input and
returns an allocation that is a coordinatewise subset of some queried
allocation, hence feasible by downward closure. Wherever a step says to
pick among several qualifying allocations, the scan is canonical and
deterministic: candidate inputs are enumerated by ascending flipped-position
combinations, then ascending replacement levels, and the first qualifying
allocation is adopted.

Available transformations, by registry id:

- "const":    return the allocation at the all-lowest input, whatever v is.
- "two":      two-value ladder; secure a 1 on a high position (searching up
              to Hamming distance 2), then zero out the low positions.
- "two-plus": two-value ladder; upgrade toward allocations with more 1s on
              high positions, and zero a low position only after an upgrade
              or on a per-position conflict with the provisional allocation
              at the raised neighbor. Preserves full welfare on more inputs.
- "multi":    ladders with k >= 3; staged upgrade scans at growing Hamming
              distances, then zero out everything below the allocation's
              top attained value class. Scans integer-coded inputs: an
              input is its index in `all_inputs` order, an allocation a
              bitmask with bit i for agent i, and the memo maps an index
              to its (Allocation, bitmask) answer.
- "identity": pass-through (query once, return the answer); a harness
              convenience for verifying raw algorithms.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator

from .blackbox import Algorithm, InstrumentedBlackBox
from .errors import DimensionError, ParameterError
from .model import Allocation, ValueLadder, ValuationVector


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


def classify_allocation(
    x: Allocation, v: ValuationVector, ladder: ValueLadder | None = None
) -> int | None:
    """Class of an allocation at an input: the highest level carrying a 1.

    Returns the ladder index, or None for the empty allocation. An
    allocation with a 1 on a high position is a high-class allocation even
    if it also allocates lower positions.
    """
    if x.n != v.n:
        raise DimensionError(f"allocation of length {x.n} vs input of length {v.n}")
    best = None
    for lvl, bit in zip(v.levels, x.bits):
        if bit and (best is None or lvl > best):
            best = lvl
    return best


def class_counts(x: Allocation, v: ValuationVector, k: int) -> list[int]:
    """Per-class 1-counts of an allocation at an input."""
    counts = [0] * k
    for lvl, bit in zip(v.levels, x.bits):
        if bit:
            counts[lvl] += 1
    return counts


def higher_than(x: Allocation, y: Allocation, v: ValuationVector, ladder: ValueLadder) -> bool:
    """Strict lexicographic comparison of per-class 1-counts, top class first."""
    if x.n != v.n or y.n != v.n:
        raise DimensionError("allocation/input lengths must match")
    cx = class_counts(x, v, ladder.k)
    cy = class_counts(y, v, ladder.k)
    for c in range(ladder.k - 1, -1, -1):
        if cx[c] != cy[c]:
            return cx[c] > cy[c]
    return False


def zero_out_below(x: Allocation, v: ValuationVector, cls: int) -> Allocation:
    """Clear every bit at a position whose level is strictly below cls."""
    bits = tuple(b if lvl >= cls else 0 for b, lvl in zip(x.bits, v.levels))
    return x if bits == x.bits else Allocation(bits)


def _high_count(x: Allocation, v: ValuationVector) -> int:
    # Two-value ladders only: count of 1s on high positions of v.
    return sum(1 for lvl, bit in zip(v.levels, x.bits) if bit and lvl == 1)


def _require_two_values(bb: InstrumentedBlackBox, name: str) -> None:
    if bb.algorithm.env.ladder.k != 2:
        raise ParameterError(f"{name} requires a two-value ladder")


def t_const(bb: InstrumentedBlackBox, v: ValuationVector) -> Allocation:
    """Return the allocation at the all-lowest input, independent of v.

    Exactly one query per call. Keeps a low/high fraction of the
    approximation ratio for any algorithm.
    """
    return bb.query(ValuationVector((0,) * v.n))


def t_two(bb: InstrumentedBlackBox, v: ValuationVector) -> Allocation:
    """Two-value transformation; queries stay within Hamming distance 2 of v.

    1. If the allocation at v has a 1 on a high position, zero out the low
       positions and return it.
    2. Otherwise scan inputs at distance 1 (canonical order); adopt the first
       allocation with a 1 on a high position of v, zero the lows, return.
    3. Otherwise do the same at distance 2.
    4. Otherwise return the allocation at v unchanged.
    """
    _require_two_values(bb, "t_two")
    original = bb.query(v)
    high = [i for i, lvl in enumerate(v.levels) if lvl == 1]
    if not high:
        # No high position: no candidate can qualify in steps 1-3, so the
        # scans are skipped and the original allocation is returned.
        return original
    bits = original.bits
    if any(bits[i] for i in high):
        return zero_out_below(original, v, 1)
    for distance in (1, 2):
        for u in inputs_at_distance(v, distance, 2):
            candidate = bb.query(u)
            cbits = candidate.bits
            if any(cbits[i] for i in high):
                return zero_out_below(candidate, v, 1)
    return original


STAGE_ORIGINAL = "original"
STAGE_UPGRADED = "upgraded"
STAGE_ZEROED = "zeroed"


class ProvisionalState:
    """Memo of intermediate allocations for the provisional transformation.

    All entries are pure functions of the underlying algorithm, so the memo
    may be reused across evaluations of one rule instance within a single
    worker; recomputation always returns the identical allocation. `stage`
    records how each input's provisional allocation came about.
    """

    def __init__(self) -> None:
        self.raw: dict[tuple[int, ...], Allocation] = {}
        self.first_pass: dict[tuple[int, ...], Allocation] = {}
        self.provisional: dict[tuple[int, ...], Allocation] = {}
        self.stage: dict[tuple[int, ...], str] = {}


def t_two_plus(
    bb: InstrumentedBlackBox, v: ValuationVector, state: ProvisionalState | None = None
) -> Allocation:
    """Two-value transformation preserving full welfare on a 1/n input fraction.

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

    Queries stay within Hamming distance 5 of v.
    """
    _require_two_values(bb, "t_two_plus")
    if state is None:
        state = ProvisionalState()

    def raw(u: ValuationVector) -> Allocation:
        x = state.raw.get(u.levels)
        if x is None:
            x = bb.query(u)
            state.raw[u.levels] = x
        return x

    def first_pass(u: ValuationVector) -> Allocation:
        cur = state.first_pass.get(u.levels)
        if cur is not None:
            return cur
        cur = raw(u)
        hc = _high_count(cur, u)
        if hc:
            for w in inputs_at_distance(u, 1, 2):
                candidate = raw(w)
                if _high_count(candidate, u) > hc:
                    cur = candidate
                    break
        state.first_pass[u.levels] = cur
        return cur

    def provisional(u: ValuationVector) -> Allocation:
        cur = state.provisional.get(u.levels)
        if cur is not None:
            return cur
        original = raw(u)
        cur = first_pass(u)
        stage = STAGE_ORIGINAL if cur == original else STAGE_UPGRADED
        if _high_count(cur, u) == 0:
            for w in inputs_at_distance(u, 1, 2):
                candidate = first_pass(w)
                if _high_count(candidate, u):
                    cur = candidate
                    stage = STAGE_UPGRADED
                    break
        if _high_count(cur, u) == 0:
            for w in inputs_at_distance(u, 2, 2):
                candidate = first_pass(w)
                if _high_count(candidate, u):
                    cur = candidate
                    stage = STAGE_UPGRADED
                    break
        if _high_count(cur, u) > _high_count(original, u):
            cur = zero_out_below(cur, u, 1)
            stage = STAGE_ZEROED
        state.provisional[u.levels] = cur
        state.stage[u.levels] = stage
        return cur

    result = provisional(v)
    bits = list(result.bits)
    changed = False
    for i, lvl in enumerate(v.levels):
        if lvl == 0 and bits[i] == 1:
            neighbor = provisional(v.with_level(i, 1))
            if neighbor.bits[i] == 0:
                bits[i] = 0
                changed = True
    return Allocation(tuple(bits)) if changed else result


@dataclass(frozen=True)
class _ScanStep:
    distance: int
    kind: str  # "class-up" | "lex-up" | "targeted"
    sources: frozenset[int] | None = None
    target: int | None = None


@functools.cache
def _scan_steps(k: int) -> tuple[_ScanStep, ...]:
    # Step j scans distance j. The leading step adopts a higher allocation:
    # for k = 3 any allocation of a strictly higher class, for larger
    # ladders any lexicographically higher one (per-class counts). Each
    # later step upgrades from a source class ("any class below the target"
    # for the ?-steps) to an exact target class. The source order for the
    # third value is (mid, low), as listed; later targets ascend.
    steps: list[_ScanStep] = [
        _ScanStep(1, "class-up" if k == 3 else "lex-up"),
        _ScanStep(2, "targeted", frozenset({0}), 1),
    ]
    distance = 3
    for target in range(2, k):
        steps.append(_ScanStep(distance, "targeted", frozenset(range(target)), target))
        distance += 1
        source_order = (1, 0) if target == 2 else tuple(range(target))
        for source in source_order:
            steps.append(_ScanStep(distance, "targeted", frozenset({source}), target))
            distance += 1
    return tuple(steps)


def t_multi(bb: InstrumentedBlackBox, v: ValuationVector, cache: dict | None = None) -> Allocation:
    """Multi-value ladder transformation (k >= 3).

    Runs the staged upgrade scans for the environment's ladder size, each
    step one Hamming distance further out, then zeroes out every position
    whose level is strictly below the allocation's top attained class.
    Scans whose target class does not appear in v are skipped: no candidate
    could qualify. For k = 3 queries stay within Hamming distance 5 of v.

    The scan runs on integers. An input is its mixed-radix index, the
    position of its level tuple in `all_inputs` order (agent 0 most
    significant); the distance-d neighbours are v's index plus one level
    delta per changed position, in the canonical order of
    `inputs_at_distance`. An allocation is a bitmask with bit i for agent i.
    `cache` maps an input index to its (Allocation, bitmask) answer; it may
    be shared across evaluations of one algorithm. A ValuationVector is
    built only on a cache miss, for the black-box query, so the black box
    sees the same queries in the same order as a scan over vectors.
    """
    k = bb.algorithm.env.ladder.k
    if k < 3:
        raise ParameterError("t_multi requires at least three ladder values; use t_two for two")
    if cache is None:
        cache = {}
    levels = v.levels
    n = len(levels)
    weights = [k ** (n - 1 - i) for i in range(n)]
    index = sum(lvl * w for lvl, w in zip(levels, weights))
    deltas = [[(lv - lvl) * w for lv in range(k) if lv != lvl] for lvl, w in zip(levels, weights)]
    lm = [0] * k  # lm[c]: positions of v at level c
    for i, lvl in enumerate(levels):
        lm[lvl] |= 1 << i
    above = [0] * k  # above[c]: positions of v above level c
    for c in range(k - 2, -1, -1):
        above[c] = above[c + 1] | lm[c + 1]
    top_down = lm[::-1]

    def answer(u: int) -> tuple[Allocation, int]:
        x = bb.query(ValuationVector(tuple(u // w % k for w in weights)))
        if x.n != n:
            raise DimensionError(f"allocation of length {x.n} vs input of length {n}")
        entry = cache[u] = (x, sum(b << i for i, b in enumerate(x.bits)))
        return entry

    def scan(distance: int) -> Iterator[tuple[Allocation, int]]:
        # Answers at the distance-`distance` neighbours, canonical order.
        # Cache entries are non-empty tuples, so `or` queries only on a miss.
        for combo in itertools.combinations(deltas, distance):
            for offset in map(sum, itertools.product(*combo)):
                u = index + offset
                yield cache.get(u) or answer(u)

    def top_class(mask: int) -> int:
        # The empty allocation counts as the lowest class: it is neither a
        # high- nor a mid-class allocation.
        for c in range(k - 1, 0, -1):
            if mask & lm[c]:
                return c
        return 0

    current = cache.get(index) or answer(index)
    for step in _scan_steps(k):
        mask = current[1]
        cls = top_class(mask)
        if step.kind == "lex-up":
            counts = [(mask & m).bit_count() for m in top_down]
            for candidate in scan(step.distance):
                if [(candidate[1] & m).bit_count() for m in top_down] > counts:
                    current = candidate
                    break
            continue
        # Adopt the first candidate with a 1 in `want` and none in `reject`.
        if step.kind == "class-up":
            want, reject = above[cls], 0
        elif cls in step.sources:
            want, reject = lm[step.target], above[step.target]
        else:
            continue
        if not want:
            continue
        for candidate in scan(step.distance):
            if candidate[1] & want and not candidate[1] & reject:
                current = candidate
                break
    return zero_out_below(current[0], v, top_class(current[1]))


TRANSFORMATION_IDS = ("const", "two", "two-plus", "multi", "identity")

_STATEFUL = frozenset({"two-plus", "multi"})


class TransformedRule:
    """An allocation rule: a transformation bound to a black-boxed algorithm.

    Every evaluation wraps the algorithm in a fresh InstrumentedBlackBox
    (applying the per-evaluation query budget and optional Hamming-radius
    restriction centered at the evaluated input) and updates query
    statistics. Stateful transformations keep their memo across evaluations
    when shared_state is set; outputs are identical either way, so sweeps
    share state per worker for speed while locality experiments use fresh
    state to observe complete per-evaluation query logs. Not thread-safe:
    one instance per worker.
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
        memoize_algorithm: bool = True,
    ):
        if kind not in TRANSFORMATION_IDS:
            raise ParameterError(
                f"unknown transformation {kind!r}; known: {', '.join(TRANSFORMATION_IDS)}"
            )
        self.kind = kind
        self.algorithm = algorithm
        self.query_budget = query_budget
        self.hamming_radius = hamming_radius
        self.check_feasible = check_feasible
        if memoize_algorithm:
            outputs: dict[tuple[int, ...], Allocation] = {}
            inner = algorithm.rule

            def cached(u: ValuationVector) -> Allocation:
                x = outputs.get(u.levels)
                if x is None:
                    x = inner(u)
                    outputs[u.levels] = x
                return x

            self._target = Algorithm(algorithm.env, cached, algorithm.name, algorithm.table)
        else:
            self._target = algorithm
        self._shared = bool(shared_state) and kind in _STATEFUL
        self._state = self._new_state() if self._shared else None
        self.evaluations = 0
        self.max_queries = 0
        self.max_radius = 0

    def _new_state(self):
        return ProvisionalState() if self.kind == "two-plus" else {}

    @property
    def env(self):
        return self.algorithm.env

    def __call__(self, v: ValuationVector) -> Allocation:
        restricted = self.hamming_radius is not None
        bb = InstrumentedBlackBox(
            self._target,
            budget=self.query_budget,
            hamming_center=v if restricted else None,
            hamming_radius=self.hamming_radius if restricted else None,
            check_feasible=self.check_feasible,
        )
        if self.kind in _STATEFUL:
            state = self._state if self._shared else self._new_state()
        else:
            state = None
        if self.kind == "identity":
            out = bb.query(v)
        elif self.kind == "const":
            out = t_const(bb, v)
        elif self.kind == "two":
            out = t_two(bb, v)
        elif self.kind == "two-plus":
            out = t_two_plus(bb, v, state)
        else:
            out = t_multi(bb, v, cache=state)
        self.evaluations += 1
        if bb.log:
            self.max_queries = max(self.max_queries, len(bb.log))
            self.max_radius = max(self.max_radius, bb.max_radius_from(v))
        return out
