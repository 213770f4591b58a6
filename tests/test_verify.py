"""Verification engine: monotonicity, welfare reports, ratios, payments."""

import itertools
import random
from fractions import Fraction

import pytest

from dcbox import (
    Allocation,
    CachedRule,
    DimensionError,
    Environment,
    FeasibilitySet,
    ParameterError,
    TransformedRule,
    ValueLadder,
    ValuationVector,
    check_monotone,
    gen_all_ones,
    gen_hamming_adversary,
    gen_knapsack,
    gen_random_algorithm,
    gen_random_environment,
    myerson_payments,
    opt_welfare,
    welfare_report,
)
from dcbox.adversaries import stable_rng
from dcbox.blackbox import Algorithm
from dcbox.verify import DEFAULT_ENUM_BOUND, WelfareReport
from oracles import kind_ladders, welfare

LAD2 = ValueLadder.of(1, 100)


def bits(text):
    return Allocation(map(int, text))


def vec(*levels):
    return ValuationVector(tuple(levels))


# Independent oracle: double loop over all ordered raise pairs.
def naive_violations(rule, n, k):
    found = []
    for base in itertools.product(range(k), repeat=n):
        x = rule(ValuationVector(base))
        for i in range(n):
            for hi in range(base[i] + 1, k):
                raised = base[:i] + (hi,) + base[i + 1 :]
                y = rule(ValuationVector(raised))
                if x.bits[i] == 1 and y.bits[i] == 0:
                    found.append((base, i, base[i], hi))
    return sorted(found)


def table_rule(n, k, seed):
    """A random rule with no feasibility structure: arbitrary bit tables."""
    rng = stable_rng("table-rule", n, k, seed)
    table = {
        levels: Allocation(tuple(rng.randint(0, 1) for _ in range(n)))
        for levels in itertools.product(range(k), repeat=n)
    }
    return lambda v: table[v.levels]


class TestCheckMonotone:
    def test_constant_rule_is_monotone(self):
        alg = gen_all_ones(3, LAD2)
        report = check_monotone(alg, alg.env)
        assert report.is_monotone
        assert report.checked_pairs == 3 * 2**2  # raisable (input, agent) pairs
        assert report.evaluations == 8

    def test_canonical_anti_monotone_rule(self):
        feas = FeasibilitySet(1, frozenset({bits("1")}))
        env = Environment(1, LAD2, feas)
        rule = lambda v: bits("1") if v.levels[0] == 0 else bits("0")
        report = check_monotone(rule, env)
        assert len(report.violations) == 1
        violation = report.violations[0]
        assert violation.input == vec(0)
        assert (violation.agent, violation.level_low, violation.level_high) == (0, 0, 1)

    def test_agrees_with_naive_oracle(self):
        for seed in range(6):
            for n, k in ((4, 2), (3, 3)):
                rule = table_rule(n, k, seed)
                env = Environment(
                    n,
                    ValueLadder.of(*range(1, k + 1)),
                    FeasibilitySet(n, frozenset({Allocation((1,) * n)})),
                )
                report = check_monotone(rule, env)
                expected = naive_violations(rule, n, k)
                got = [
                    (v.input.levels, v.agent, v.level_low, v.level_high)
                    for v in report.violations
                ]
                assert got == expected

    def test_transformed_random_rules_are_monotone(self):
        for seed in range(6):
            env = gen_random_environment(6, LAD2, seed + 40)
            alg = gen_random_algorithm(env, seed + 80)
            report = check_monotone(CachedRule(TransformedRule("two", alg)), env)
            assert report.is_monotone

    def test_sampling_fallback(self):
        alg = gen_all_ones(8, LAD2)
        report = check_monotone(alg, alg.env, enum_bound=50, seed=9)
        assert report.sampled
        assert report.seed == 9
        assert report.checked_pairs == 25
        assert report.is_monotone
        again = check_monotone(alg, alg.env, enum_bound=50, seed=9)
        assert report.checked_pairs == again.checked_pairs
        assert [v.sort_key() for v in report.violations] == [
            v.sort_key() for v in again.violations
        ]


class TestWelfareReport:
    def test_identity_rule(self):
        env = gen_random_environment(4, LAD2, 3)
        alg = gen_random_algorithm(env, 4)
        report = welfare_report(alg, alg, env)
        assert report.full_welfare_count == report.total_inputs == 16
        if report.pointwise_min_fraction is not None:
            assert report.pointwise_min_fraction == 1
        assert report.sum_welfare_rule == report.sum_welfare_original

    def test_two_over_all_ones_keeps_two_inputs(self):
        alg = gen_all_ones(3, LAD2)
        report = welfare_report(TransformedRule("two", alg), alg, alg.env)
        assert report.full_welfare_count == 2
        assert report.total_inputs == 8
        assert report.zero_original_count == 0

    def test_two_plus_preserves_expected_welfare(self):
        # high/low must exceed 2n for the sum comparison
        n = 4
        ladder = ValueLadder.of(1, 2 * n + 1)
        alg = gen_all_ones(n, ladder)
        report = welfare_report(TransformedRule("two-plus", alg), alg, alg.env)
        assert report.sum_welfare_rule >= report.sum_welfare_original

    def test_fraction_full_welfare(self):
        alg = gen_all_ones(3, LAD2)
        report = welfare_report(alg, alg, alg.env)
        assert Fraction(report.full_welfare_count, report.total_inputs) == 1
        report = welfare_report(TransformedRule("two", alg), alg, alg.env)
        assert Fraction(report.full_welfare_count, report.total_inputs) == Fraction(2, 8)

    def test_two_plus_fraction_bound(self):
        n = 4
        ladder = ValueLadder.of(1, n + 1)
        alg = gen_all_ones(n, ladder)
        report = welfare_report(TransformedRule("two-plus", alg), alg, alg.env)
        assert Fraction(report.full_welfare_count, report.total_inputs) >= Fraction(1, n)

    def test_zero_welfare_inputs_counted_separately(self):
        feas = FeasibilitySet(2, frozenset({bits("10")}))
        env = Environment(2, LAD2, feas)
        # allocates only at the all-high input; welfare 0 elsewhere
        alg = Algorithm(env, lambda v: bits("10") if v.levels == (1, 1) else bits("00"))
        report = welfare_report(alg, alg, env)
        assert report.zero_original_count == 3
        assert report.pointwise_min_fraction == 1


    def test_empty_feasibility_set(self):
        env = Environment(3, ValueLadder.of(1, 4), FeasibilitySet(3, frozenset()))
        nobody = lambda v: Allocation.zeros(3)
        report = welfare_report(nobody, nobody, env)
        assert report.opt_zero_count == report.total_inputs == 8
        assert report.approx_ratio_rule is None
        assert report.approx_ratio_original is None


class TestApproxRatio:
    def test_optimal_knapsack_is_one(self):
        alg = gen_knapsack([2, 1, 3], 4, "optimal", ValueLadder.of(1, 4))
        assert welfare_report(alg, alg, alg.env).approx_ratio_rule == 1

    def test_hamming_adversary_ratio(self):
        inst = gen_hamming_adversary(6, 3)
        report = welfare_report(inst.algorithm, inst.algorithm, inst.algorithm.env)
        assert report.approx_ratio_rule == Fraction(1, 2)

    def test_two_over_hamming_degrades(self):
        # at (h^6, h l^5) the transformation keeps one high bit of welfare
        # against an optimum of 6 highs
        inst = gen_hamming_adversary(6, 3)
        rule = CachedRule(TransformedRule("two", inst.algorithm))
        assert welfare_report(rule, rule, inst.algorithm.env).approx_ratio_rule <= Fraction(1, 6)

    def test_never_exceeds_one(self):
        for seed in range(8):
            env = gen_random_environment(4, LAD2, seed + 300)
            alg = gen_random_algorithm(env, seed + 400)
            ratio = welfare_report(alg, alg, env).approx_ratio_rule
            assert ratio is None or ratio <= 1

    def test_vacuous_environment(self):
        env = Environment(2, LAD2, FeasibilitySet(2, frozenset()))
        alg = Algorithm(env, lambda v: bits("00"))
        assert welfare_report(alg, alg, env).approx_ratio_rule is None


class TestMyersonPayments:
    def single_item_rule(self):
        feas = FeasibilitySet(2, frozenset({bits("10"), bits("01")}))
        env = Environment(2, ValueLadder.of(1, 2), feas)

        def rule(v):
            # highest value wins, lowest index on ties
            winner = max(range(2), key=lambda i: (v.levels[i], -i))
            return bits("10") if winner == 0 else bits("01")

        return Algorithm(env, rule), env

    def test_single_item_winner_pays_low(self):
        alg, env = self.single_item_rule()
        assert myerson_payments(alg, vec(1, 0), env.ladder) == [Fraction(1), Fraction(0)]

    def test_single_item_winner_pays_high_when_contested(self):
        alg, env = self.single_item_rule()
        # agent 0 wins the (h,h) tie but would lose at l: critical value is h
        assert myerson_payments(alg, vec(1, 1), env.ladder) == [Fraction(2), Fraction(0)]

    def test_all_ones_pays_lowest(self):
        ladder = ValueLadder.of(1, 3, 9)
        alg = gen_all_ones(3, ladder)
        assert myerson_payments(alg, vec(2, 1, 0), ladder) == [Fraction(1)] * 3

    def test_losers_pay_zero(self):
        alg, env = self.single_item_rule()
        payments = myerson_payments(alg, vec(0, 1), env.ladder)
        assert payments[0] == 0

    def test_payment_coherence_for_monotone_rules(self):
        # winners pay at most their declared value, and a raised declaration
        # never pushes the payment above the new value
        for seed in range(5):
            env = gen_random_environment(4, LAD2, seed + 70)
            alg = gen_random_algorithm(env, seed + 90)
            rule = CachedRule(TransformedRule("two", alg))
            assert check_monotone(rule, env).is_monotone
            for v in env.inputs():
                x = rule(v)
                payments = myerson_payments(rule, v, env.ladder)
                for i, bit in enumerate(x.bits):
                    if not bit:
                        assert payments[i] == 0
                        continue
                    declared = env.ladder.value(v.levels[i])
                    assert payments[i] <= declared
                    for hi in range(v.levels[i] + 1, env.k):
                        raised = v.with_level(i, hi)
                        assert rule(raised).bits[i] == 1  # monotone
                        raised_payment = myerson_payments(rule, raised, env.ladder)[i]
                        assert raised_payment <= env.ladder.value(hi)


# Oracles for the mask-table verifiers, over levels and exact Fractions
# (`welfare`, `opt_welfare`); the sampled ones draw the verifiers' documented
# sample from random.Random(seed).
def oracle_monotone(rule, env, enum_bound, seed):
    n, k = env.n, env.k
    if k**n <= enum_bound:
        violations = naive_violations(rule, n, k)
        pairs = sum(k - 1 - lvl for v in env.inputs() for lvl in v.levels)
        return violations, pairs, k**n, False, None
    rng = random.Random(seed)
    pairs = max(1, enum_bound // 2)
    found = []
    for _ in range(pairs):
        levels = [rng.randrange(k) for _ in range(n)]
        i = rng.randrange(n)
        lo = rng.randrange(k - 1)
        hi = rng.randrange(lo + 1, k)
        levels[i] = lo
        low = ValuationVector(tuple(levels))
        if rule(low).bits[i] and not rule(low.with_level(i, hi)).bits[i]:
            found.append((low.levels, i, lo, hi))
    return sorted(found), pairs, 2 * pairs, True, seed


def oracle_welfare(rule, original, env, enum_bound, seed):
    n, k, ladder, feasibility = env.n, env.k, env.ladder, env.feasibility
    sampled = k**n > enum_bound
    if sampled:
        rng = random.Random(seed)
        count = max(1, enum_bound // 2)
        inputs = [ValuationVector(tuple(rng.randrange(k) for _ in range(n))) for _ in range(count)]
    else:
        inputs = list(env.inputs())
    rows = [
        (
            welfare(v, rule(v), ladder),
            welfare(v, original(v), ladder),
            opt_welfare(v, feasibility, ladder),
        )
        for v in inputs
    ]
    return WelfareReport(
        pointwise_min_fraction=min((r / o for r, o, _ in rows if o), default=None),
        full_welfare_count=sum(r >= o for r, o, _ in rows),
        total_inputs=len(rows),
        zero_original_count=sum(o == 0 for _, o, _ in rows),
        sum_welfare_rule=sum(r for r, _, _ in rows),
        sum_welfare_original=sum(o for _, o, _ in rows),
        approx_ratio_rule=min((r / best for r, _, best in rows if best), default=None),
        approx_ratio_original=min((o / best for _, o, best in rows if best), default=None),
        opt_zero_count=sum(best == 0 for _, _, best in rows),
        sampled=sampled,
        seed=seed if sampled else None,
    )


def knapsack_panel(n, ladder, seed):
    """Rules over one knapsack environment: its greedy and optimal policies,
    a random algorithm over it, and an arbitrary bit table (`table_rule`)."""
    rng = stable_rng("knapsack-panel", n, ladder.k, seed)
    weights = [rng.randint(1, 3) for _ in range(n)]
    greedy = gen_knapsack(weights, max(1, sum(weights) // 2), "greedy", ladder)
    optimal = gen_knapsack(weights, max(1, sum(weights) // 2), "optimal", ladder)
    env = greedy.env
    table = Algorithm(env, table_rule(n, ladder.k, seed), "table")
    return env, [greedy, optimal, gen_random_algorithm(env, seed), table]


# (n, ladder, transformations run on that ladder)
MASK_TABLE_CASES = [
    (5, (1, 3), ("identity", "const", "two", "two-plus")),
    (3, (1, 3, 9), ("identity", "const", "multi")),
    (3, (1, 2, 5, 7), ("identity", "const")),
]


class TestMaskTableOracle:
    @pytest.mark.parametrize("n, ladder, kinds", MASK_TABLE_CASES, ids=["k2", "k3", "k4"])
    @pytest.mark.parametrize("path", ["exhaustive", "sampled"])
    def test_every_field_matches_the_oracle(self, n, ladder, kinds, path):
        ladder = ValueLadder.of(*ladder)
        for seed in range(2):
            env, panel = knapsack_panel(n, ladder, seed)
            enum_bound = DEFAULT_ENUM_BOUND if path == "exhaustive" else env.k**n - 3
            for alg in panel:
                rules = [alg] + [CachedRule(TransformedRule(kind, alg)) for kind in kinds]
                for rule in rules:
                    mono = check_monotone(rule, env, enum_bound=enum_bound, seed=seed)
                    violations = [
                        (x.input.levels, x.agent, x.level_low, x.level_high)
                        for x in mono.violations
                    ]
                    got = (
                        violations,
                        mono.checked_pairs,
                        mono.evaluations,
                        mono.sampled,
                        mono.seed,
                    )
                    assert got == oracle_monotone(rule, env, enum_bound, seed)
                    report = welfare_report(rule, alg, env, enum_bound=enum_bound, seed=seed)
                    assert report == oracle_welfare(rule, alg, env, enum_bound, seed)
                    assert report.sampled == (path == "sampled")

    def test_rule_of_the_wrong_length_is_refused(self):
        env, (alg, *_) = knapsack_panel(3, ValueLadder.of(1, 3), 0)
        # Exhaustive, then sampled (5 < 2**3).
        for length, enum_bound in itertools.product((2, 4), (DEFAULT_ENUM_BOUND, 5)):
            wrong = lambda v: Allocation.zeros(length)
            with pytest.raises(DimensionError):
                check_monotone(wrong, env, enum_bound=enum_bound)
            with pytest.raises(DimensionError):
                welfare_report(wrong, alg, env, enum_bound=enum_bound)
            with pytest.raises(DimensionError):
                welfare_report(alg, wrong, env, enum_bound=enum_bound)

    def test_calls_after_the_check_read_the_mask_table(self):
        alg = gen_all_ones(3, ValueLadder.of(1, 3))
        calls = []

        def counting(v):
            calls.append(v.levels)
            return alg(v)

        rule = CachedRule(counting)
        v = vec(1, 1, 0)
        assert check_monotone(rule, alg.env).is_monotone
        assert rule(v) == Allocation.full(3)
        assert myerson_payments(rule, v, alg.env.ladder) == [1, 1, 1]  # level 0 pays 1
        assert len(calls) == 8  # once per input, all in the check

    def test_levels_off_the_ladder_go_to_the_rule(self):
        # A negative level must not read another input's table entry.
        alg = gen_all_ones(2, ValueLadder.of(1, 3))
        rule = CachedRule(TransformedRule("two", alg))
        assert check_monotone(rule, alg.env).is_monotone
        off_the_ladder = r"^input \(-1, 0\) has a level off the 2-value ladder$"
        with pytest.raises(ParameterError, match=off_the_ladder):
            rule(vec(-1, 0))

    def test_sampled_evaluations_are_not_memoized(self):
        alg = gen_all_ones(4, ValueLadder.of(1, 2, 3))
        calls = []

        def counting(v):
            calls.append(v.levels)
            return alg(v)

        rule = CachedRule(counting)
        enum_bound = 80  # below 3**4: 40 raise pairs, then 40 drawn inputs
        assert check_monotone(rule, alg.env, enum_bound=enum_bound).sampled
        assert welfare_report(rule, alg, alg.env, enum_bound=enum_bound).total_inputs == 40
        # Two calls per pair and one per drawn input, repeated inputs included.
        assert len(calls) == 2 * 40 + 40
        assert len(set(calls)) < len(calls)
        assert rule.cache == {}


# TransformedRule keywords per state: shared answers, fresh state, and fresh
# state under limits that no scan at n=4 reaches.
STATES = {
    "shared": {},
    "fresh": {"shared_state": False},
    "limited": {"query_budget": 200, "hamming_radius": 6},
}


class TestIndexedTables:
    # Exhaustive tables pass a TransformedRule or an Algorithm each input's
    # index; a plain callable gets the vector. Both must see the same inputs
    # in the same order, so shared-state query counts (table misses) agree.
    @pytest.mark.parametrize("kind, values", list(kind_ladders()))
    @pytest.mark.parametrize("state", list(STATES))
    def test_index_table_is_the_vector_table(self, kind, values, state):
        env = gen_random_environment(4, ValueLadder.of(*values), 6100)
        n, k = env.n, env.k
        alg = gen_random_algorithm(env, 6200)
        indexed = TransformedRule(kind, alg, **STATES[state])
        by_vector = TransformedRule(kind, alg, **STATES[state])
        rule = CachedRule(indexed)
        plain = CachedRule(lambda v: by_vector(v))
        assert rule.masks(n, k) == plain.masks(n, k)
        assert (indexed.max_queries, indexed.max_radius) == (
            by_vector.max_queries,
            by_vector.max_radius,
        )
        # The same misses in the same order filled both boxes' answers.
        assert list(indexed._box.answers) == list(by_vector._box.answers)
        assert CachedRule(alg).masks(n, k) == CachedRule(lambda v: alg(v)).masks(n, k)
        assert welfare_report(rule, alg, env) == welfare_report(plain, lambda v: alg(v), env)

    @pytest.mark.parametrize("kind", ["const", "two"])
    def test_original_misses_are_decoded_in_order_and_not_stored(self, kind):
        env = gen_random_environment(4, LAD2, 6300)
        base = gen_random_algorithm(env, 6400)
        calls = []

        def counting(v):
            calls.append(v.levels)
            return base(v)

        alg = Algorithm(env, counting, "counting")
        rule = CachedRule(TransformedRule(kind, alg))
        assert check_monotone(rule, env).is_monotone
        asked = dict(rule.rule._box.answers)
        calls.clear()
        indexed = welfare_report(rule, alg, env)
        misses = list(calls)
        calls.clear()
        assert indexed == welfare_report(rule, lambda v: alg(v), env)
        assert calls == misses
        assert len(misses) == env.input_count() - len(asked)  # const: all but index 0
        assert dict(rule.rule._box.answers) == asked

    def test_exhaustive_tables_build_no_vectors(self, monkeypatch):
        env = gen_random_environment(4, ValueLadder.of(1, 5, 25), 6500)
        alg = gen_random_algorithm(env, 6600)
        expected = welfare_report(CachedRule(TransformedRule("multi", alg)), alg, env)

        def refused(n, k):
            raise AssertionError("an exhaustive table built the input vectors")

        monkeypatch.setattr("dcbox.verify.all_inputs", refused)
        rule = CachedRule(TransformedRule("multi", alg))
        assert check_monotone(rule, env).is_monotone
        assert welfare_report(rule, alg, env) == expected
        with pytest.raises(AssertionError, match="built the input vectors"):
            check_monotone(lambda v: alg(v), env)

    @pytest.mark.parametrize("enum_bound", [DEFAULT_ENUM_BOUND, 5], ids=["exhaustive", "sampled"])
    def test_rule_over_another_n_is_refused_by_both_verifiers(self, enum_bound):
        ladder = ValueLadder.of(1, 3)
        small = gen_all_ones(3, ladder)
        env = gen_all_ones(4, ladder).env
        rule = CachedRule(TransformedRule("two", small))
        with pytest.raises(DimensionError, match="^input of length 4 vs n=3$"):
            check_monotone(rule, env, enum_bound=enum_bound)
        with pytest.raises(DimensionError, match="^input of length 4 vs n=3$"):
            welfare_report(rule, gen_all_ones(4, ladder), env, enum_bound=enum_bound)
        # An Algorithm over n=3 as the original: a vector call, refused on length.
        with pytest.raises(DimensionError, match="^allocation of length 3 vs input of length 4$"):
            welfare_report(gen_all_ones(4, ladder), small, env, enum_bound=enum_bound)
