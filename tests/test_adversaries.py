"""Generators: construction invariants, determinism, feasibility."""

import itertools
from fractions import Fraction

import pytest

from dcbox import (
    Allocation,
    ParameterError,
    ValueLadder,
    ValuationVector,
    all_inputs,
    gen_all_ones,
    gen_block_adversary,
    gen_hamming_adversary,
    gen_knapsack,
    gen_random_algorithm,
    gen_random_environment,
    gen_thm1,
    is_feasible,
    tabulate,
)
from dcbox.adversaries import _density_ranks, stable_rng
from oracles import hamming_distance, welfare


def bits(text):
    return Allocation(map(int, text))


def vec(*levels):
    return ValuationVector(tuple(levels))


class TestThm1:
    def test_rejects_odd_or_small_m(self):
        with pytest.raises(ParameterError):
            gen_thm1(3, seed=0)
        with pytest.raises(ParameterError):
            gen_thm1(0, seed=0)

    @pytest.mark.parametrize("m", [2, 4])
    def test_block_structure_pre_permutation(self, m):
        inst = gen_thm1(m, seed=11)
        n = 4 * m
        # special input: high except the last m positions
        assert inst.special_input_pre.levels == (1,) * (3 * m) + (0,) * m
        # special allocation: m+1 ones in the first 2m, zero middle, ones last
        c = inst.special_allocation_pre.bits
        assert sum(c[: 2 * m]) == m + 1
        assert sum(c[2 * m : 3 * m]) == 0
        assert c[3 * m :] == (1,) * m
        # default allocation covers the last 2m positions
        assert inst.default_allocation_pre.bits == (0,) * (2 * m) + (1,) * (2 * m)

    @pytest.mark.parametrize("m", [2, 4])
    def test_fake_shapes(self, m):
        inst = gen_thm1(m, seed=11)
        assert len(inst.fakes_pre) == len(
            list(itertools.combinations(range(2 * m), m // 2 - 1))
        )
        for fake in inst.fakes_pre:
            assert sum(fake.bits[: 2 * m]) == m // 2 - 1
            assert sum(fake.bits[2 * m : 3 * m]) == 0
            assert fake.bits[3 * m :] == (1,) * m

    def test_m2_fakes_have_no_leading_ones(self):
        inst = gen_thm1(2, seed=4)
        for fake in inst.fakes_pre:
            assert sum(fake.bits[:4]) == 0

    @pytest.mark.parametrize("m", [2, 4])
    def test_permutation_moves_only_the_tail(self, m):
        inst = gen_thm1(m, seed=11)
        n = 4 * m
        cut = n - 3 * m // 2
        assert inst.permutation[:cut] == tuple(range(cut))
        assert sorted(inst.permutation[cut:]) == list(range(cut, n))

    def test_exactly_one_special_input(self):
        inst = gen_thm1(2, seed=7)
        specials = [
            v for v in inst.algorithm.env.inputs() if inst.algorithm(v) == inst.special_allocation
        ]
        assert specials == [inst.special_input]

    def test_default_branch(self):
        inst = gen_thm1(2, seed=7)
        rng = stable_rng("probe", 0)
        for _ in range(100):
            v = ValuationVector(tuple(rng.randint(0, 1) for _ in range(8)))
            if v != inst.special_input:
                assert inst.algorithm(v) == inst.default_allocation

    def test_outputs_and_fakes_feasible(self):
        for m in (2, 4):
            inst = gen_thm1(m, seed=5)
            assert is_feasible(inst.special_allocation, inst.algorithm.env.feasibility)
            assert is_feasible(inst.default_allocation, inst.algorithm.env.feasibility)
            for fake in inst.fakes:
                assert is_feasible(fake, inst.algorithm.env.feasibility)

    def test_deterministic_in_seed(self):
        a, b = gen_thm1(2, seed=42), gen_thm1(2, seed=42)
        assert a.permutation == b.permutation
        assert a.special_input == b.special_input
        assert a.special_allocation == b.special_allocation
        other = gen_thm1(2, seed=43)
        assert (
            other.permutation != a.permutation
            or other.special_allocation != a.special_allocation
        )


class TestBlockAdversary:
    def test_rejects_bad_ordering(self):
        with pytest.raises(ParameterError):
            gen_block_adversary(8, 2, 4, 3, seed=1)  # L2 <= L3
        with pytest.raises(ParameterError):
            gen_block_adversary(4, 4, 1, 2, seed=1)  # L1 == L2

    def test_needs_seed_or_positions(self):
        with pytest.raises(ParameterError):
            gen_block_adversary(8, 4, 1, 2)

    def test_small_instance_case_split(self):
        inst = gen_block_adversary(8, 4, 1, 2, seed=3)
        assert inst.special_input.levels == (1, 1, 1, 1, 0, 0, 0, 0, 1)
        assert sum(inst.special_allocation.bits[4:8]) == 2
        assert inst.algorithm(inst.chain[0]) == inst.special_allocation
        assert inst.algorithm(inst.chain[1]) == inst.default_allocation

    def test_explicit_positions(self):
        inst = gen_block_adversary(8, 4, 1, 2, positions=[4, 6])
        assert inst.chosen_positions == (4, 6)
        assert inst.special_allocation == bits("000010100")

    def test_welfare_comparison_at_special_input(self):
        # special allocation collects ones_count lows; the default collects
        # L3 highs
        ladder = ValueLadder.of(1, 2)
        inst = gen_block_adversary(8, 4, 1, 2, seed=3, ladder=ladder)
        b1 = inst.special_input
        assert welfare(b1, inst.special_allocation, ladder) == 2 * ladder.values[0]
        assert welfare(b1, inst.default_allocation, ladder) == 1 * ladder.values[-1]

    def test_chain_distances(self):
        inst = gen_block_adversary(16, 8, 1, 6, seed=9)
        assert len(inst.chain) == 6
        for i, b in enumerate(inst.chain, start=1):
            assert hamming_distance(inst.chain[0], b) == i - 1
        # every chain input keeps at least one chosen position low
        for b in inst.chain:
            assert any(b.levels[p] == 0 for p in inst.chosen_positions)


class TestHammingAdversary:
    def test_threshold_split(self):
        inst = gen_hamming_adversary(6, 3)
        nine_highs = vec(*([1] * 9 + [0] * 3))
        ten_highs = vec(*([1] * 10 + [0] * 2))
        assert inst.algorithm(nine_highs) == bits("000000111111")
        assert inst.algorithm(ten_highs) == bits("111111000000")

    def test_parameter_bounds(self):
        with pytest.raises(ParameterError):
            gen_hamming_adversary(0, 0)
        with pytest.raises(ParameterError):
            gen_hamming_adversary(4, 5)

    def test_two_maximal_allocations(self):
        inst = gen_hamming_adversary(4, 2)
        maximal = inst.algorithm.env.feasibility.maximal
        assert maximal == frozenset({bits("11110000"), bits("00001111")})

    def test_table_matches_rule(self):
        inst = gen_hamming_adversary(4, 2)
        lookup = tabulate(inst.algorithm).lookup()
        for v in inst.algorithm.env.inputs():
            assert lookup(v) == inst.algorithm(v)


class TestAllOnes:
    def test_constant_output(self):
        alg = gen_all_ones(5)
        assert alg(vec(0, 1, 0, 1, 0)) == bits("11111")

    def test_everything_feasible(self):
        alg = gen_all_ones(3)
        for candidate in itertools.product((0, 1), repeat=3):
            assert is_feasible(Allocation(candidate), alg.env.feasibility)

    def test_opt_is_total_value(self):
        from dcbox import opt_welfare

        ladder = ValueLadder.of(1, 10)
        alg = gen_all_ones(3, ladder)
        v = vec(1, 0, 1)
        assert opt_welfare(v, alg.env.feasibility, ladder) == 21


class TestKnapsack:
    def test_single_item_auction(self):
        alg = gen_knapsack([1, 1], 1)
        assert alg.env.feasibility.maximal == frozenset({bits("10"), bits("01")})

    def test_brute_force_matches_subset_enumeration(self):
        # oracle: enumerate all 8 subsets of weights (2,2,3), capacity 4
        ladder = ValueLadder.of(1, 5)
        weights = [2, 2, 3]
        capacity = 4
        alg = gen_knapsack(weights, capacity, "optimal", ladder)
        v = vec(1, 1, 0)
        best = Fraction(0)
        for subset in itertools.product((0, 1), repeat=3):
            if sum(w for w, b in zip(weights, subset) if b) <= capacity:
                best = max(best, welfare(v, Allocation(subset), ladder))
        assert best == welfare(v, alg(v), ladder)
        assert alg(v) == bits("110")

    def test_optimal_ties_break_to_largest_bits(self):
        # both singletons weigh in equally at hh and at ll; the documented
        # tie-break picks the lexicographically largest bit string
        alg = gen_knapsack([1, 1], 1, "optimal", ValueLadder.of(1, 2))
        assert alg(vec(1, 1)) == bits("10")
        assert alg(vec(0, 0)) == bits("10")
        assert alg(vec(0, 1)) == bits("01")

    def test_greedy_fills_by_density(self):
        ladder = ValueLadder.of(1, 10)
        alg = gen_knapsack([1, 1, 2], 2, "greedy", ladder)
        # densities at (l,h,h): 1, 10, 5 -> picks agent 1 then agent 0
        assert alg(vec(0, 1, 1)) == bits("110")

    @pytest.mark.parametrize("values", [(1, 2), (1, 2, 4)])
    def test_greedy_rank_order_is_the_density_order(self, values):
        # weights 1,2,2,4 on ladder 1 2 make densities tie within and
        # across agents (1/1 == 2/2, 1/2 == 2/4)
        ladder = ValueLadder.of(*values)
        capacity = 4
        for n in range(1, 7):
            weights = tuple(Fraction(w) for w in (1, 2, 2, 4, 1, 2)[:n])
            rank = _density_ranks(weights, ladder)
            alg = gen_knapsack(weights, capacity, "greedy", ladder)
            for v in all_inputs(n, ladder.k):
                lv = v.levels
                literal = sorted(range(n), key=lambda i: (-(ladder.values[lv[i]] / weights[i]), i))
                assert sorted(range(n), key=lambda i: (rank[i][lv[i]], i)) == literal
                remaining, taken = capacity, [0] * n
                for i in literal:
                    if weights[i] <= remaining:
                        taken[i] = 1
                        remaining -= weights[i]
                assert alg(v).bits == tuple(taken)

    def test_greedy_equals_optimal_for_equal_weights(self):
        ladder = ValueLadder.of(1, 3)
        for n, cap in ((4, 2), (5, 3), (6, 3)):
            greedy = gen_knapsack([1] * n, cap, "greedy", ladder)
            optimal = gen_knapsack([1] * n, cap, "optimal", ladder)
            for v in greedy.env.inputs():
                assert welfare(v, greedy(v), ladder) == welfare(v, optimal(v), ladder)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            gen_knapsack([1, 1], -1)
        with pytest.raises(ParameterError):
            gen_knapsack([0, 1], 1)
        with pytest.raises(ParameterError):
            gen_knapsack([1, 1], 1, "nonsense-policy")

    def test_outputs_feasible(self):
        ladder = ValueLadder.of(1, 4)
        for policy in ("greedy", "optimal"):
            alg = gen_knapsack([2, 1, 3, 2], 5, policy, ladder)
            for v in alg.env.inputs():
                assert is_feasible(alg(v), alg.env.feasibility)


class TestRandomAlgorithm:
    def test_deterministic_in_seed(self):
        env = gen_random_environment(6, ValueLadder.of(1, 6), 21)
        a = gen_random_algorithm(env, 5)
        b = gen_random_algorithm(env, 5)
        for v in env.inputs():
            assert a(v) == b(v)

    def test_outputs_feasible(self):
        env = gen_random_environment(6, ValueLadder.of(1, 6), 22)
        alg = gen_random_algorithm(env, 6)
        for v in env.inputs():
            assert is_feasible(alg(v), env.feasibility)

    def test_seeds_diverge(self):
        ladder = ValueLadder.of(1, 6)
        seed = 0
        while True:
            env = gen_random_environment(6, ladder, seed)
            if len(env.feasibility.maximal) >= 2:
                break
            seed += 1
        a = gen_random_algorithm(env, 1000)
        b = gen_random_algorithm(env, 1001)
        assert any(a(v) != b(v) for v in env.inputs())

    def test_empty_feasibility_yields_zeros(self):
        from dcbox import Environment, FeasibilitySet

        env = Environment(3, ValueLadder.of(1, 2), FeasibilitySet(3, frozenset()))
        alg = gen_random_algorithm(env, 1)
        assert alg(vec(0, 1, 0)) == bits("000")


class TestRandomEnvironment:
    def test_deterministic_and_nonempty(self):
        ladder = ValueLadder.of(1, 5)
        a = gen_random_environment(5, ladder, 33)
        b = gen_random_environment(5, ladder, 33)
        assert a.feasibility.maximal == b.feasibility.maximal
        assert a.feasibility.maximal
        assert all(m.mask.bit_count() > 0 for m in a.feasibility.maximal)
