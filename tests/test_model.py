"""Model layer: welfare, feasibility, optimal welfare, antichain normalization."""

import copy
import itertools
import pickle
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcbox import (
    Allocation,
    DimensionError,
    Environment,
    FeasibilitySet,
    ParameterError,
    ValueLadder,
    ValuationVector,
    all_inputs,
    is_feasible,
    normalize_antichain,
    opt_welfare,
)
from dcbox.model import ScaledWelfare, above_masks
from oracles import welfare

L, H = 0, 1  # two-value level indices


def bits(text):
    return Allocation(map(int, text))


def vec(*levels):
    return ValuationVector(tuple(levels))


# Independent oracle: brute force over the entire downward closure, with
# inline domination and dot-product logic (bypasses is_feasible/welfare).
def brute_force_opt(v, feasibility, ladder):
    values = [ladder.values[lvl] for lvl in v.levels]
    maximal = [m.bits for m in feasibility.maximal]
    best = Fraction(0)
    for candidate in itertools.product((0, 1), repeat=v.n):
        if not any(all(c <= m for c, m in zip(candidate, mx)) for mx in maximal):
            continue
        total = sum((val for val, bit in zip(values, candidate) if bit), Fraction(0))
        best = max(best, total)
    return best


class TestAllocationMask:
    @pytest.mark.parametrize("from_mask", [False, True])
    def test_pickle_and_copy_round_trip(self, from_mask):
        x = Allocation.from_mask(4, 0b1101) if from_mask else bits("1011")
        for clone in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert clone == x
            assert clone.bits == (1, 0, 1, 1)
            assert clone.mask == 0b1101

    def test_equality_hash_and_repr_ignore_the_cache(self):
        first, second = bits("0110"), Allocation.from_mask(4, 0b0110)
        assert first == second
        assert hash(first) == hash(second)  # equal allocations hash equal
        assert repr(first) == repr(second) == "Allocation(bits=(0, 1, 1, 0))"
        assert len({first, second}) == 1
        assert first != bits("0111") and first != bits("01100")

    def test_stores_only_n_and_mask(self):
        x = bits("0110")
        assert Allocation.__slots__ == ("n", "mask")
        assert (x.n, x.mask) == (4, 0b0110)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1))))
    def test_from_mask_agrees_with_bits(self, n_mask):
        n, mask = n_mask
        oracle = tuple(mask >> i & 1 for i in range(n))
        x, y = Allocation.from_mask(n, mask), Allocation(oracle)
        assert x == y and hash(x) == hash(y)
        assert x.bits == y.bits == oracle
        assert x.to_string() == "".join(map(str, oracle))
        assert x.mask.bit_count() == sum(oracle)
        for other in range(2**n):
            z = Allocation.from_mask(n, other)
            covered = all(a <= b for a, b in zip(oracle, z.bits))
            assert x.dominated_by(z) == y.dominated_by(z) == covered
        for clone in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert clone == y and clone.mask == mask and clone.n == n

    @pytest.mark.parametrize("n, mask", [(0, -1), (0, 1), (3, -1), (3, 8), (3, 2**10)])
    def test_from_mask_rejects_out_of_range(self, n, mask):
        with pytest.raises(ParameterError):
            Allocation.from_mask(n, mask)


class TestValueLadder:
    def test_of_parses_rationals(self):
        ladder = ValueLadder.of("3/2", 2, "10")
        assert ladder.values == (Fraction(3, 2), Fraction(2), Fraction(10))
        assert ladder.values[0] == Fraction(3, 2) and ladder.values[-1] == 10

    def test_rejects_too_short(self):
        with pytest.raises(ParameterError):
            ValueLadder.of(1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            ValueLadder.of(0, 1)
        with pytest.raises(ParameterError):
            ValueLadder.of(-1, 1)

    def test_rejects_non_increasing(self):
        with pytest.raises(ParameterError):
            ValueLadder.of(10, 1)
        with pytest.raises(ParameterError):
            ValueLadder.of(1, 1)


class TestWelfare:
    def test_empty_allocation(self):
        # v=(h,l), x=(0,0) -> 0
        assert welfare(vec(H, L), bits("00"), ValueLadder.of(1, 10)) == 0

    def test_direct_dot_product(self):
        # v=(h,h,l,l), x=(1,1,0,0), (l,h)=(1,10) -> 20
        assert welfare(vec(H, H, L, L), bits("1100"), ValueLadder.of(1, 10)) == 20

    def test_full_allocation_sum(self):
        # oracle: 5 + 1 + 1 summed by hand for (l,h)=(1,5)
        assert welfare(vec(H, L, L), bits("111"), ValueLadder.of(1, 5)) == 7

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            welfare(vec(H, L), bits("100"), ValueLadder.of(1, 10))


class TestFeasibility:
    def setup_method(self):
        self.pair = FeasibilitySet(4, frozenset({bits("1100"), bits("0011")}))

    def test_all_zero_feasible(self):
        assert is_feasible(bits("0000"), self.pair)

    def test_maximal_element_feasible(self):
        assert is_feasible(bits("1100"), self.pair)

    def test_cross_pair_infeasible(self):
        # 1010 is dominated by neither 1100 nor 0011 (checked per element)
        assert not is_feasible(bits("1010"), self.pair)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            is_feasible(bits("110"), self.pair)

    def test_constructor_rejects_non_antichain(self):
        with pytest.raises(ParameterError):
            FeasibilitySet(2, frozenset({bits("11"), bits("10")}))

    def test_monotone_decreasing(self):
        # any coordinatewise-smaller vector of a feasible one stays feasible
        feas = normalize_antichain([bits("1101"), bits("0111")])
        for candidate in itertools.product((0, 1), repeat=4):
            x = Allocation(candidate)
            if not is_feasible(x, feas):
                continue
            for i in range(4):
                if candidate[i]:
                    smaller = list(candidate)
                    smaller[i] = 0
                    assert is_feasible(Allocation(tuple(smaller)), feas)


class TestOptWelfare:
    def test_single_item_auction(self):
        feas = FeasibilitySet(2, frozenset({bits("10"), bits("01")}))
        assert opt_welfare(vec(H, L), feas, ValueLadder.of(1, 2)) == 2

    def test_two_blocks_against_brute_force(self):
        feas = FeasibilitySet(4, frozenset({bits("1100"), bits("0011")}))
        ladder = ValueLadder.of(1, 10)
        v = vec(H, H, L, L)
        assert brute_force_opt(v, feas, ladder) == 20
        assert opt_welfare(v, feas, ladder) == 20

    def test_empty_set_warns_and_returns_zero(self):
        feas = FeasibilitySet(3, frozenset())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert opt_welfare(vec(L, L, L), feas, ValueLadder.of(1, 2)) == 0
        assert any("empty" in str(w.message) for w in caught)

    def test_matches_brute_force_on_random_sets(self):
        # oracle equivalence over seeded random antichains, n <= 8 here
        # (n <= 12 is covered by the acceptance suite)
        import random

        rng = random.Random(42)
        ladder = ValueLadder.of(1, 7)
        for _ in range(25):
            n = rng.randint(2, 8)
            count = rng.randint(1, 5)
            allocs = [
                Allocation(tuple(rng.randint(0, 1) for _ in range(n))) for _ in range(count)
            ]
            feas = normalize_antichain(allocs, n)
            v = ValuationVector(tuple(rng.randint(0, 1) for _ in range(n)))
            assert opt_welfare(v, feas, ladder) == brute_force_opt(v, feas, ladder)

    def test_scaled_optimum_without_candidates(self):
        assert ScaledWelfare(ValueLadder.of(1, 2), []).optimum((0, 1)) == (0, None)

    def test_welfare_never_exceeds_opt(self):
        feas = normalize_antichain([bits("1100"), bits("0111")])
        ladder = ValueLadder.of(1, 9)
        for v in all_inputs(4, 2):
            for candidate in itertools.product((0, 1), repeat=4):
                x = Allocation(candidate)
                if is_feasible(x, feas):
                    assert welfare(v, x, ladder) <= opt_welfare(v, feas, ladder)


def literal_optimum(v, maximal, ladder):
    """Oracle: exact welfare of every maximal allocation, the maximum taken
    with ties to the lexicographically largest bits."""
    return max(((welfare(v, m, ladder), m.bits) for m in maximal), default=(0, None))


def brute_force_optima(n, ladder, maximal):
    """Oracle: at every input, listed by index sum(level_i * k**i), the
    largest welfare of any allocation in the whole downward closure of
    `maximal`, in Fractions; 0 when the closure is empty."""
    closure = [
        candidate
        for candidate in itertools.product((0, 1), repeat=n)
        if any(all(c <= m for c, m in zip(candidate, mx.bits)) for mx in maximal)
    ]
    k = ladder.k
    table = [None] * k**n
    for levels in itertools.product(range(k), repeat=n):
        values = [ladder.values[lvl] for lvl in levels]
        index = sum(lvl * k**i for i, lvl in enumerate(levels))
        table[index] = max(
            (sum((val for val, b in zip(values, c) if b), Fraction(0)) for c in closure),
            default=Fraction(0),
        )
    return table


@st.composite
def kernel_cases(draw):
    n = draw(st.integers(1, 8))
    k = draw(st.sampled_from([2, 3, 4]))
    values = draw(
        st.one_of(
            st.just((Fraction(1, 3), Fraction(5, 2), Fraction(7), Fraction(19, 2))[:k]),
            st.lists(
                st.fractions(min_value=Fraction(1, 6), max_value=40, max_denominator=6),
                min_size=k,
                max_size=k,
                unique=True,
            ),
        )
    )
    ladder = ValueLadder(tuple(sorted(Fraction(x) for x in values)))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 1)] * n), max_size=7))
    feasibility = normalize_antichain([Allocation(r) for r in rows], n)
    levels = draw(st.tuples(*[st.integers(0, k - 1)] * n))
    return ladder, feasibility, ValuationVector(levels)


class TestOptimumKernel:
    @settings(max_examples=200, deadline=None)
    @given(kernel_cases())
    def test_matches_literal_oracle(self, case):
        ladder, feasibility, v = case
        scaled = ScaledWelfare(ladder, feasibility.maximal)
        value, mask = scaled.optimum(v.levels)
        best, best_bits = literal_optimum(v, feasibility.maximal, ladder)
        assert scaled.fraction(value) == best
        if best_bits is None:
            assert mask is None
        else:
            assert mask == sum(b << i for i, b in enumerate(best_bits))

    def test_fractional_ladder_ties_go_to_largest_bits(self):
        # at v = (high, mid, high) on ladder 1/3 5/2 17/6, both 110 and 011
        # have welfare 17/6 + 5/2 = 16/3; 110 is the larger bit string
        ladder = ValueLadder.of(Fraction(1, 3), Fraction(5, 2), Fraction(17, 6))
        maximal = [bits("110"), bits("011")]
        scaled = ScaledWelfare(ladder, maximal)
        v = vec(2, 1, 2)
        assert welfare(v, maximal[0], ladder) == welfare(v, maximal[1], ladder)
        value, mask = scaled.optimum(v.levels)
        assert scaled.fraction(value) == Fraction(16, 3)
        assert mask == 0b011  # bits 110: agents 0 and 1

    # `optima_table` at every input against the brute force, and against
    # `optima` at every input's above-level masks, which pins the exhaustive
    # and the sampled kernels to each other.
    LADDERS = {
        2: [(1, 3), (Fraction(1, 3), Fraction(5, 2))],
        3: [(1, 4, 16), (Fraction(1, 3), Fraction(5, 2), 7)],
        4: [(1, 2, 3, 5), (Fraction(1, 3), Fraction(5, 2), 7, Fraction(19, 2))],
    }

    @staticmethod
    def antichains(n, rng):
        drawn = [Allocation.from_mask(n, rng.randrange(1 << n)) for _ in range(rng.randint(1, 6))]
        return [[], [Allocation.zeros(n)], list(normalize_antichain(drawn, n).maximal)]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_brute_force_and_the_listed_kernel(self, k):
        rng = random.Random(2026 + k)
        for values in self.LADDERS[k]:
            ladder = ValueLadder.of(*values)
            for n in range(1, 6 if k < 4 else 5):
                for maximal in self.antichains(n, rng):
                    scaled = ScaledWelfare(ladder, maximal)
                    table = scaled.optima_table(n, k)
                    assert table == scaled.optima(above_masks(n, k))
                    expected = brute_force_optima(n, ladder, maximal)
                    assert [scaled.fraction(t) for t in table] == expected, (n, maximal)

    def test_empty_antichain_and_the_empty_allocation_give_zero(self):
        ladder = ValueLadder.of(1, 2, 4)
        assert ScaledWelfare(ladder, []).optima_table(3, 3) == [0] * 27
        assert ScaledWelfare(ladder, [Allocation.zeros(3)]).optima_table(3, 3) == [0] * 27


class TestNormalizeAntichain:
    def test_dominating_element_wins(self):
        feas = normalize_antichain([bits("11"), bits("10"), bits("01")])
        assert feas.maximal == frozenset({bits("11")})

    def test_incomparable_pair_unchanged(self):
        feas = normalize_antichain([bits("1100"), bits("0011")])
        assert feas.maximal == frozenset({bits("1100"), bits("0011")})

    def test_pairwise_domination_scan(self):
        feas = normalize_antichain([bits("110"), bits("011"), bits("010")])
        assert feas.maximal == frozenset({bits("110"), bits("011")})

    def test_empty_needs_explicit_n(self):
        with pytest.raises(ParameterError):
            normalize_antichain([])
        assert normalize_antichain([], n=3).maximal == frozenset()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(*([st.integers(0, 1)] * 4)),
            min_size=1,
            max_size=8,
        )
    )
    def test_idempotent(self, raw):
        allocs = [Allocation(t) for t in raw]
        once = normalize_antichain(allocs)
        again = normalize_antichain(list(once.maximal))
        assert once.maximal == again.maximal

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(*([st.integers(0, 1)] * 4)),
            min_size=1,
            max_size=8,
        )
    )
    def test_downward_closure_preserved(self, raw):
        allocs = [Allocation(t) for t in raw]
        feas = normalize_antichain(allocs)
        for candidate in itertools.product((0, 1), repeat=4):
            in_original = any(
                all(c <= m for c, m in zip(candidate, a.bits)) for a in allocs
            )
            assert is_feasible(Allocation(candidate), feas) == in_original


class TestEnvironment:
    def test_dimension_check(self):
        feas = FeasibilitySet(3, frozenset({bits("111")}))
        with pytest.raises(DimensionError):
            Environment(4, ValueLadder.of(1, 2), feas)

    def test_input_count(self):
        feas = FeasibilitySet(3, frozenset({bits("111")}))
        env = Environment(3, ValueLadder.of(1, 2, 4), feas)
        assert env.input_count() == 27
        assert len(list(env.inputs())) == 27
