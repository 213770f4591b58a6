"""Transformations: classification, step traces, locality, determinism."""

import hashlib
import tracemalloc

import pytest

from dcbox import (
    Allocation,
    CachedRule,
    DimensionError,
    Environment,
    FeasibilitySet,
    HammingRestrictionViolation,
    InfeasibleOutputError,
    InstrumentedBlackBox,
    ParameterError,
    QueryBudgetExceeded,
    TransformedRule,
    ValueLadder,
    check_monotone,
    gen_all_ones,
    gen_random_algorithm,
    gen_random_environment,
    is_feasible,
)
from dcbox import transforms
from dcbox.blackbox import Algorithm
from dcbox.harness import standard_panel
from dcbox.model import input_at, input_index
from dcbox.transforms import (
    TRANSFORMATIONS,
    inputs_at_distance,
    t_const,
    t_multi,
    t_two,
    t_two_plus,
)
from oracles import (
    LITERAL_TWO_VALUE_SPECS,
    bits,
    first_departure,
    hamming_distance,
    kind_ladders,
    literal_multi3,
    literal_two_plus,
    sparse_table,
    two_value_tables,
    vec,
)

LAD2 = ValueLadder.of(1, 100)
LAD3 = ValueLadder.of(1, 10, 100)
SPARSE_ORACLE_SEEDS = 3  # sparse tables per (n, answering-input count)


def centred(alg, v, **options):
    """A new black box over alg centred at v's index: what a kernel takes."""
    bb = InstrumentedBlackBox(alg, **options)
    bb.recenter(input_index(v.levels, alg.env.k))
    return bb


def constant_algorithm(n, allocation, maximal, ladder=LAD2, name="const-alg"):
    feas = FeasibilitySet(n, frozenset(maximal))
    env = Environment(n, ladder, feas)
    return Algorithm(env, lambda v: allocation, name=name)


class TestScanOrder:
    def test_distance_one_flips_positions_in_order(self):
        got = [u.levels for u in inputs_at_distance(vec(0, 0, 0), 1, 2)]
        assert got == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_distance_two_pairs_lexicographic(self):
        got = [u.levels for u in inputs_at_distance(vec(0, 0, 0), 2, 2)]
        assert got == [(1, 1, 0), (1, 0, 1), (0, 1, 1)]

    def test_multilevel_replacements_ascend(self):
        got = [u.levels for u in inputs_at_distance(vec(1, 1), 1, 3)]
        assert got == [(0, 1), (2, 1), (1, 0), (1, 2)]

    def test_exact_distance(self):
        v = vec(0, 1, 2, 0)
        for d in (1, 2, 3):
            for u in inputs_at_distance(v, d, 3):
                assert hamming_distance(u, v) == d


def classify_allocation(x, v):
    """Class of an allocation at an input: the highest level carrying a 1,
    or None for the empty allocation."""
    return max((lvl for lvl, bit in zip(v.levels, x.bits) if bit), default=None)


def higher_than(x, y, v, ladder):
    """Strict lexicographic comparison of per-class 1-counts, top class first."""

    def counts(z):
        c = [0] * ladder.k
        for lvl, bit in zip(v.levels, z.bits):
            c[lvl] += bit
        return c[::-1]

    return counts(x) > counts(y)


class TestClassification:
    def test_high_class_wins(self):
        assert classify_allocation(bits("11"), vec(1, 0)) == 1

    def test_empty_allocation(self):
        assert classify_allocation(bits("000"), vec(1, 0, 1)) is None

    def test_mid_class(self):
        # highest level under a 1 is the middle one
        assert classify_allocation(bits("011"), vec(2, 1, 0)) == 1

    def test_higher_than_more_on_high(self):
        assert higher_than(bits("110"), bits("100"), vec(1, 1, 0), LAD2)

    def test_higher_than_irreflexive(self):
        assert not higher_than(bits("101"), bits("101"), vec(1, 1, 0), LAD2)

    def test_higher_than_lexicographic(self):
        # counts (h:1, m:0, l:1) vs (h:1, m:1, l:0): equal on high, fewer mid
        assert not higher_than(bits("101"), bits("110"), vec(2, 1, 0), LAD3)
        assert higher_than(bits("110"), bits("101"), vec(2, 1, 0), LAD3)


class TestTConst:
    def test_constant_behavior(self):
        alg = gen_all_ones(4, LAD2)
        assert t_const(centred(alg, vec(1, 1, 1, 1))) == bits("1111")

    def test_output_ignores_input(self):
        # A(llll) = 0011; t_const returns it even at the all-high input
        low_answer = bits("0011")
        alg = constant_algorithm(4, low_answer, {low_answer})
        assert t_const(centred(alg, vec(1, 1, 1, 1))) == low_answer

    def test_single_query_at_all_lowest(self):
        alg = gen_all_ones(3, LAD2)
        bb = centred(alg, vec(1, 0, 1))
        t_const(bb)
        assert len(bb.log) == 1
        assert [input_at(u, 3, 2) for u in bb.log] == [vec(0, 0, 0)]


class TestTTwo:
    def test_all_ones_keeps_extremes_only(self):
        alg = gen_all_ones(3, LAD2)
        rule = TransformedRule("two", alg)
        full = {v.levels for v in alg.env.inputs() if rule(v) == bits("111")}
        assert full == {(1, 1, 1), (0, 0, 0)}

    def test_zeroes_lows_when_high_present(self):
        alg = gen_all_ones(2, LAD2)
        assert t_two(centred(alg, vec(1, 0))) == bits("10")

    def test_pass_through_when_no_candidate(self):
        # A constant at (0,1) never yields a 1 on the high position of (h,l)
        alg = constant_algorithm(2, bits("01"), {bits("01"), bits("10")})
        assert t_two(centred(alg, vec(1, 0))) == bits("01")

    def test_adopts_neighbor_allocation(self):
        # high answer only at (h,h); at (h,l) step 2 adopts it and zeroes lows
        def rule(v):
            return bits("11") if v.levels == (1, 1) else bits("01")

        feas = FeasibilitySet(2, frozenset({bits("11")}))
        alg = Algorithm(Environment(2, LAD2, feas), rule)
        assert t_two(centred(alg, vec(1, 0))) == bits("10")

    def test_queries_stay_within_distance_two(self):
        for seed in range(5):
            env = gen_random_environment(5, LAD2, seed)
            alg = gen_random_algorithm(env, seed + 30)
            for v in env.inputs():
                bb = centred(alg, v)
                t_two(bb)
                assert bb.max_radius <= 2

    def test_deterministic_logs(self):
        env = gen_random_environment(4, LAD2, 7)
        alg = gen_random_algorithm(env, 77)
        for v in env.inputs():
            first = centred(alg, v)
            second = centred(alg, v)
            assert t_two(first) == t_two(second)
            assert list(first.log.items()) == list(second.log.items())


class TestTTwoPlus:
    def test_all_high_input_unchanged(self):
        alg = gen_all_ones(3, LAD2)
        assert t_two_plus(centred(alg, vec(1, 1, 1))) == bits("111")

    def test_keeps_low_when_no_conflict(self):
        # contrast with t_two: the raised neighbor's provisional allocation
        # keeps the bit, so the low position is not zeroed
        alg = gen_all_ones(2, LAD2)
        assert t_two_plus(centred(alg, vec(1, 0))) == bits("11")

    def test_all_ones_preserves_everything(self):
        alg = gen_all_ones(4, LAD2)
        rule = TransformedRule("two-plus", alg)
        for v in alg.env.inputs():
            assert rule(v) == bits("1111")

    def test_shared_and_fresh_state_agree(self):
        env = gen_random_environment(4, LAD2, 11)
        alg = gen_random_algorithm(env, 111)
        shared = TransformedRule("two-plus", alg, shared_state=True)
        fresh = TransformedRule("two-plus", alg, shared_state=False)
        for v in env.inputs():
            assert shared(v) == fresh(v)

    def test_memo_follows_the_reuse_policy(self):
        # Without reuse, re-centring empties the box's memo and the next
        # evaluation queries again; with it, the memo is kept and answers
        # the same evaluation without a query.
        env = gen_random_environment(4, LAD2, 13)
        alg = gen_random_algorithm(env, 131)
        v = vec(1, 0, 1, 0)
        for reuse in (False, True):
            bb = centred(alg, v, shared_state=reuse)
            first = t_two_plus(bb)
            memo, queries = dict(bb.memo), len(bb.log)
            assert memo and queries
            bb.recenter(input_index(v.levels, 2))
            assert bb.memo == (memo if reuse else {})
            assert t_two_plus(bb) == first
            assert len(bb.log) == (0 if reuse else queries)

    def test_queries_stay_within_distance_five(self):
        for seed in range(4):
            env = gen_random_environment(4, LAD2, seed + 20)
            alg = gen_random_algorithm(env, seed + 40)
            for v in env.inputs():
                bb = centred(alg, v)
                t_two_plus(bb)
                assert bb.max_radius <= 5



class TestTMulti:
    def test_zeroes_below_top_class(self):
        alg = gen_all_ones(3, LAD3)
        assert t_multi(centred(alg, vec(2, 1, 0))) == bits("100")

    def test_all_low_input_untouched(self):
        alg = gen_all_ones(3, LAD3)
        assert t_multi(centred(alg, vec(0, 0, 0))) == bits("111")

    def test_upgrades_to_high_class(self):
        # (2,2,0) at distance 1 answers with a high-class allocation; the
        # class-raising first step adopts it and the lows are zeroed
        def rule(v):
            if sum(v.levels) >= 4:
                return bits("100")
            return bits("001")

        feas = FeasibilitySet(3, frozenset({bits("101")}))
        alg = Algorithm(Environment(3, LAD3, feas), rule)
        out = t_multi(centred(alg, vec(2, 0, 0)))
        assert out == bits("100")

    def test_queries_stay_within_distance_five_for_three_values(self):
        for seed in range(3):
            env = gen_random_environment(4, LAD3, seed + 60)
            alg = gen_random_algorithm(env, seed + 90)
            for v in env.inputs():
                bb = centred(alg, v)
                t_multi(bb)
                assert bb.max_radius <= 5

    def test_rejects_allocation_of_wrong_length(self):
        alg = constant_algorithm(3, bits("10"), [bits("111")], ladder=LAD3)
        with pytest.raises(DimensionError):
            t_multi(centred(alg, vec(2, 1, 0)))


def _literal_multi(alg, v):
    """The step table that `multi` once extrapolated to ladders with k >= 4,
    written out as loops, classing with classify_allocation and comparing
    with higher_than, no caching, no scan skipping. It is not monotone (see
    TestRefusedMultiTable), which is why t_multi refuses k >= 4; it stays
    here as the data of that finding."""
    ladder = alg.env.ladder
    k = ladder.k
    assert k >= 4

    def classify(x):
        return classify_allocation(x, v) or 0

    def first(distance, accept):
        for u in inputs_at_distance(v, distance, k):
            if accept(alg(u)):
                return alg(u)
        return None

    cur = alg(v)
    cur = first(1, lambda x: higher_than(x, cur, v, ladder)) or cur  # lex-up
    if classify(cur) == 0:
        cur = first(2, lambda x: classify(x) == 1) or cur  # low -> mid
    distance = 3
    for target in range(2, k):
        if classify(cur) < target:  # any class below the target -> target
            cur = first(distance, lambda x: classify(x) == target) or cur
        distance += 1
        for source in (1, 0) if target == 2 else range(target):
            if classify(cur) == source:  # one source class -> target
                cur = first(distance, lambda x: classify(x) == target) or cur
            distance += 1
    cls = classify(cur)
    return Allocation(tuple(b if lvl >= cls else 0 for b, lvl in zip(cur.bits, v.levels)))


class TestLiteralOracles:
    def test_two_plus_matches_unmemoized_oracle(self):
        ladder = ValueLadder.of(1, 9)
        for seed in range(4):
            env = gen_random_environment(4, ladder, 5000 + seed)
            alg = gen_random_algorithm(env, 5100 + seed)
            rule = TransformedRule("two-plus", alg)
            for v in env.inputs():
                assert rule(v) == literal_two_plus(alg, v)

    @pytest.mark.parametrize("kind", list(LITERAL_TWO_VALUE_SPECS))
    def test_two_value_kernels_match_their_specs(self, kind):
        spec = LITERAL_TWO_VALUE_SPECS[kind]
        for shared_state in (True, False):
            for alg in two_value_tables():
                assert first_departure(kind, alg, spec, shared_state=shared_state) is None

    def test_multi_matches_unmemoized_oracle(self):
        ladder = ValueLadder.of(1, 5, 25)
        dense = [
            gen_random_algorithm(gen_random_environment(4, ladder, 6000 + seed), 6100 + seed)
            for seed in range(3)
        ]
        # Dense tables almost always adopt at step 1. Sparse ones, where one
        # to four inputs answer anything, leave most centers empty, so their
        # scans run on through the later steps. Step j scans distance j, so
        # only the n = 5 tables reach step 5.
        sparse = [
            sparse_table(n, ladder, count, seed)
            for n in (3, 4)
            for count in range(1, 5)
            for seed in range(SPARSE_ORACLE_SEEDS)
        ] + [sparse_table(5, ladder, count, 0) for count in (1, 4)]
        for alg in dense:
            rule = TransformedRule("multi", alg)
            for v in alg.env.inputs():
                assert rule(v) == literal_multi3(alg, v)
        for shared_state in (True, False):
            for alg in sparse:
                rule = TransformedRule("multi", alg, shared_state=shared_state)
                for v in alg.env.inputs():
                    assert rule(v) == literal_multi3(alg, v), (alg.name, v, shared_state)


class TestRefusedMultiTable:
    # The smallest witness: `random-20262820` of the acceptance panel
    # (standard_panel seed 20260809, ladder n^0 .. n^3) at k=4, n=2. Its
    # answers by input, agent 0's level first.
    WITNESS = (
        "00:01 10:00 20:00 30:01 01:01 11:10 21:10 31:10 "
        "02:01 12:01 22:01 32:01 03:10 13:01 23:10 33:01"
    )

    def witness(self):
        env = gen_random_environment(2, ValueLadder.of(1, 2, 4, 8), 20261820)
        return gen_random_algorithm(env, 20262820)

    def test_witness_table(self):
        alg = self.witness()
        assert alg.name == "random-20262820"
        assert alg.env.feasibility.sorted_maximal() == [bits("01"), bits("10")]
        table = " ".join(
            f"{a}{b}:{alg(vec(a, b)).to_string()}" for b in range(4) for a in range(4)
        )
        assert table == self.WITNESS

    def test_extrapolated_table_is_not_monotone_on_the_witness(self):
        # At 10 the first scan adopts 01 from 00, the second 10 from 03; at
        # 20 no agent sits at level 1, so the second scan is skipped.
        alg = self.witness()
        assert _literal_multi(alg, vec(1, 0)) == bits("10")
        assert _literal_multi(alg, vec(2, 0)) == bits("01")
        report = check_monotone(lambda v: _literal_multi(alg, v), alg.env)
        assert (vec(1, 0), 0, 1, 2) in [
            (x.input, x.agent, x.level_low, x.level_high) for x in report.violations
        ]

    def test_multi_refuses_the_witness(self):
        alg = self.witness()
        with pytest.raises(ParameterError, match="^transformation 'multi' takes 3 ladder values, got 4$"):
            TransformedRule("multi", alg)


class TestMultiAtThreeValues:
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: multi is not monotone at k = 3")
    def test_witness_is_monotone(self):
        # A(1,2) = 10 and 00 elsewhere. At (1,0) the distance-1 scan meets
        # (1,2) and adopts 10. At (2,0), (1,2) is at distance 2, and the
        # steps that could adopt a class-2 allocation scan distances 3-5,
        # which n=2 does not reach: agent 0 loses the item by raising its bid.
        env = Environment(2, ValueLadder.of(1, 2, 4), FeasibilitySet(2, frozenset({bits("11")})))
        alg = Algorithm(env, lambda v: bits("10" if v.levels == (1, 2) else "00"), name="witness")
        report = check_monotone(CachedRule(TransformedRule("multi", alg)), env)
        assert report.is_monotone, [(x.input.levels, x.agent) for x in report.violations]


# Per-input digests of t_multi's black-box query sequence with fresh state,
# in all_inputs order, recorded from the scan over ValuationVectors that the
# integer kernel replaced: (n, ladder, environment seed, algorithm seed).
QUERY_ORDER_CASES = {
    "k3-n4": (4, (1, 4, 16), 7103, 7203),
}
QUERY_ORDER_DIGESTS = {
    "k3-n4": """
    ca5b5568 61aa6e60 096794b5 e0ccf3be 37c186ff d38d1fbc a13cb86b 4bf429dd
    1c9afd55 b410b4ef 5cd2f8a5 097c78e6 811afed1 60058585 2fc63d37 eef5d165
    fb9835e9 8215222c 036ed2c6 9acae753 b600dbd3 e7dc1833 68d86908 e52334cd
    7ff2f1ed 7d499dfd 0dbde4e5 6409aa47 bf84b1fc 0156d0b9 7a2141a5 0ef065d0
    ec671da3 a71cb457 39b1f565 b6e408a3 d3dc8991 ae055ef7 736108c2 ca97551f
    f6ec9fb7 881f13de 4a846f84 0a27246e 5fe6b6f8 62453bff d441c13f c6f78d3e
    939ea010 2a05ea47 3cbe615e cc3a17ed 0df4be94 43ce3fd1 a35156dc db58b989
    b1e8cb35 b6e44ed2 003c5934 72dbf6d6 a4e08c25 8a590766 1ab7fa30 6d23e271
    6e1adfb8 88e57ccf 081c6a45 86833368 92de1bbe 2547a9dd ef6fd797 9d499e2c
    80126a54 7cf65fd0 93cfcfa5 88b715c3 ab9c8ab3 dfd5cecd 0990721c ac2cb057
    91696c44
    """,
}


def _query_order_algorithm(case):
    n, values, env_seed, alg_seed = QUERY_ORDER_CASES[case]
    env = gen_random_environment(n, ValueLadder.of(*values), env_seed)
    return gen_random_algorithm(env, alg_seed)


def _fresh_logs(alg, transform):
    """(input, queried inputs in order) per input, fresh state each time."""
    n, k = alg.env.n, alg.env.k
    for v in alg.env.inputs():
        bb = centred(alg, v)
        transform(bb)
        yield v, [input_at(u, n, k) for u in bb.log]


def _log_digests(alg, transform):
    return [
        hashlib.sha256(repr([u.levels for u in log]).encode()).hexdigest()[:8]
        for _, log in _fresh_logs(alg, transform)
    ]


def _check_budget_and_radius_one_too_small(alg, transform):
    """A budget one below the fresh query count, or a radius equal to the
    farthest query's distance, raises at exactly the query that exceeds it."""
    for v, log in _fresh_logs(alg, transform):
        tight = centred(alg, v, budget=len(log) - 1)
        with pytest.raises(QueryBudgetExceeded):
            transform(tight)
        assert len(tight.log) == len(log) - 1
        radius = max(hamming_distance(u, v) for u in log)
        near = centred(alg, v, hamming_radius=radius)
        with pytest.raises(HammingRestrictionViolation):
            transform(near)
        first_far = next(i for i, u in enumerate(log) if hamming_distance(u, v) == radius)
        assert len(near.log) == first_far


class TestMultiQueryOrder:
    @pytest.mark.parametrize("case", sorted(QUERY_ORDER_CASES))
    def test_query_sequence_per_input(self, case):
        got = _log_digests(_query_order_algorithm(case), t_multi)
        assert got == QUERY_ORDER_DIGESTS[case].split()

    @pytest.mark.parametrize("case", sorted(QUERY_ORDER_CASES))
    def test_budget_and_radius_one_too_small(self, case):
        _check_budget_and_radius_one_too_small(_query_order_algorithm(case), t_multi)


@pytest.fixture
def fresh_plans(monkeypatch):
    """An empty scan-plan store for one test, so plans that earlier tests
    kept, or the cap they filled, do not decide which side of the cap runs."""
    store = transforms._ScanPlans()
    monkeypatch.setattr(transforms, "_SCAN_PLANS", store)
    return store


def _kept_lengths(store):
    """The entries the store's center records hold: their masks and plans."""
    return sum(
        len(entry)
        for records in store.plans.values()
        for record in records.values()
        for entry in record
        if entry is not None
    )


class TestScanPlans:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_plan_is_the_canonical_neighbour_order(self, n, fresh_plans):
        for center in range(3**n):
            v = input_at(center, n, 3)
            for distance in range(1, 6):
                expected = [input_index(u.levels, 3) for u in inputs_at_distance(v, distance, 3)]
                # Built on the first scan, then read back as kept.
                for _ in range(2):
                    assert list(transforms._scan_plan(n, 3, center, distance)) == expected
                if distance > n:
                    assert expected == []
        assert fresh_plans.kept == _kept_lengths(fresh_plans) > 0

    # Caps that keep every plan, some plans and none: the kernel must scan
    # the same neighbours on both sides of the cap.
    @pytest.mark.parametrize("cap", [transforms.MAX_PLAN_INDICES, 500, 0])
    def test_both_sides_of_the_cap_scan_alike(self, cap, fresh_plans, monkeypatch):
        monkeypatch.setattr(transforms, "MAX_PLAN_INDICES", cap)
        case = sorted(QUERY_ORDER_CASES)[0]
        alg = _query_order_algorithm(case)
        assert _log_digests(alg, t_multi) == QUERY_ORDER_DIGESTS[case].split()
        _check_budget_and_radius_one_too_small(alg, t_multi)
        env = gen_random_environment(5, ValueLadder.of(1, 5, 25), 2)
        alg = gen_random_algorithm(env, 3)
        got = []
        for shared_state in (True, False):
            rule = TransformedRule("multi", alg, shared_state=shared_state)
            check_monotone(CachedRule(rule), env)
            got.append((rule.max_queries, rule.max_radius))
        assert got == [(71, 5), (171, 5)]
        assert fresh_plans.kept == _kept_lengths(fresh_plans) <= cap
        assert (fresh_plans.kept > 0) == (cap > 0)

    def test_kept_indices_stay_within_the_cap(self, fresh_plans):
        # C8-sized panels at n = 6 and 7, then a sampled run at n = 14, whose
        # 3**14 inputs no exhaustive run reaches and no plan is kept for.
        for n in (6, 7):
            for algorithm in standard_panel(
                n, ValueLadder.of(1, n, n * n), 20260809, random_count=20, include_optimal=True
            ):
                check_monotone(CachedRule(TransformedRule("multi", algorithm)), algorithm.env)
        n = 14
        ones, empty = Allocation.from_mask(n, (1 << n) - 1), Allocation.from_mask(n, 0)
        env = Environment(n, ValueLadder.of(1, n, n * n), FeasibilitySet(n, frozenset({ones})))
        # Cheap answers whose scans run out to distance 5 at most centers.
        alg = Algorithm(env, lambda v: ones if v.levels.count(2) >= 8 else empty)
        # Nothing of size k**n is allocated up front: a list over the inputs
        # would take 12.7 MB at n = 13 alone. This first evaluation adopts a
        # distance-1 answer: 17 queries, the center and 16 neighbours.
        tracemalloc.start()
        try:
            rule = TransformedRule("multi", alg)
            assert rule(vec(*[2] * 7, *[0] * 7)) == Allocation.from_mask(n, (1 << 7) - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rule.max_queries == 17
        assert peak < 1 << 20
        assert check_monotone(rule, env, enum_bound=10, seed=7).sampled
        assert fresh_plans.kept == _kept_lengths(fresh_plans) <= transforms.MAX_PLAN_INDICES
        assert set(fresh_plans.plans) == {(6, 3), (7, 3)}

    def test_indices_past_64_bits_scan_without_plans(self, fresh_plans):
        # 3**41 > 2**64: no fixed-width array holds these indices.
        n = 41
        ones, empty = Allocation.from_mask(n, (1 << n) - 1), Allocation.from_mask(n, 0)
        env = Environment(n, ValueLadder.of(1, n, n * n), FeasibilitySet(n, frozenset({ones})))
        alg = Algorithm(env, lambda v: ones if v.levels.count(2) >= 8 else empty)
        rule = TransformedRule("multi", alg)
        assert rule(vec(*[2] * 7, *[0] * 34)) == Allocation.from_mask(n, (1 << 7) - 1)
        assert (rule.max_queries, rule.max_radius) == (17, 1)
        assert fresh_plans.plans == {} and fresh_plans.kept == 0


# The same per-input digests for the two-value transformations on ladder
# 1 100, recorded from the scan over ValuationVectors: (transformation, n,
# environment seed, algorithm seed). The seeds were picked for many inputs
# whose scans reach distance 2.
TWO_VALUE_ORDER_CASES = {
    "two-n4": (t_two, 4, 7511, 7611),
    "two-n5": (t_two, 5, 7558, 7658),
    "two-plus-n4": (t_two_plus, 4, 7534, 7634),
    "two-plus-n5": (t_two_plus, 5, 7547, 7647),
}
TWO_VALUE_ORDER_DIGESTS = {
    "two-n4": """
    ca5b5568 55427162 2e340d52 3fe16a06 e5a09f2e 3eae0649 e4260ea5 fd9a6251
    17dd864a c3a4c584 cd06b546 7c2f2f35 d3dc8991 ae055ef7 093d3e71 f6ec9fb7
    """,
    "two-n5": """
    46efef09 f42877cc 898913b5 62cff77a 02b8da97 31b6068e 3f6d6a09 d9591a9f
    9c63d17b b6225031 d8af9b56 2a4eb6ab 908000e8 8a5dbe30 e47b0135 e1c3beb9
    b2c4dba2 d20807cd 6134c6d6 959e0ed0 9c25805b 189abdfd eb2942fa befceb2d
    ca24a860 d5cba84e 232dc2ce 4aaeac1b e2685245 dd15f417 09dd7241 0eb6d1b6
    """,
    "two-plus-n4": """
    e47c5ae5 c51e132e 67b32f93 9c6e1520 50e6c54a 47ba451b d0850486 0d6e5da5
    6cb4a15a 012ab9a6 ae2e44a1 2b9efd11 a64b07a5 7dedc51e eaef8abe 589039ff
    """,
    "two-plus-n5": """
    f42909d9 97db1392 21dc1bb1 4315a082 f39c2f9e 31b6068e 076a3827 bedca80c
    63f6fff3 cb931748 d04011e9 28f29848 78500cde 33c79ea5 63493d53 492220c1
    957cff19 2534755f 0d3d1638 eca6d2f9 1f66d983 189abdfd d867c1da fc2ea66e
    a0fd9240 86f83bb1 5f740d58 1d19e68e e27e183e cbf4289f 1797788e 6fd7469c
    """,
}


def _two_value_case(case):
    transform, n, env_seed, alg_seed = TWO_VALUE_ORDER_CASES[case]
    env = gen_random_environment(n, LAD2, env_seed)
    return gen_random_algorithm(env, alg_seed), transform


class TestTwoValueQueryOrder:
    @pytest.mark.parametrize("case", sorted(TWO_VALUE_ORDER_CASES))
    def test_query_sequence_per_input(self, case):
        assert _log_digests(*_two_value_case(case)) == TWO_VALUE_ORDER_DIGESTS[case].split()

    @pytest.mark.parametrize("case", sorted(TWO_VALUE_ORDER_CASES))
    def test_budget_and_radius_one_too_small(self, case):
        _check_budget_and_radius_one_too_small(*_two_value_case(case))

    def test_two_plus_shared_state_equals_fresh_state(self):
        # n=6, every input, the shared memo filled in both evaluation orders
        env = gen_random_environment(6, LAD2, 7547)
        alg = gen_random_algorithm(env, 7647)
        fresh = TransformedRule("two-plus", alg, shared_state=False)
        expected = {v: fresh(v) for v in env.inputs()}
        for order in (list(expected), list(expected)[::-1]):
            shared = TransformedRule("two-plus", alg, shared_state=True)
            assert {v: shared(v) for v in order} == expected


class TestFeasibilityInvariant:
    def test_output_is_subset_of_a_queried_allocation(self):
        # stronger than plain feasibility: the result never contains a 1
        # that no query returned at that position
        for seed in range(4):
            env = gen_random_environment(4, LAD2, seed + 1000)
            alg = gen_random_algorithm(env, seed + 1100)
            for v in env.inputs():
                for fn in (t_two, t_two_plus, t_const):
                    bb = centred(alg, v)
                    out = fn(bb)
                    assert any(not out.mask & ~answer.mask for answer in bb.log.values())
        for seed in range(2):
            env = gen_random_environment(3, LAD3, seed + 1200)
            alg = gen_random_algorithm(env, seed + 1300)
            for v in env.inputs():
                bb = centred(alg, v)
                out = t_multi(bb)
                assert any(not out.mask & ~answer.mask for answer in bb.log.values())

    # every transformation output is feasible in its environment
    def test_outputs_feasible_two_values(self):
        for seed in range(6):
            env = gen_random_environment(4, LAD2, seed + 500)
            alg = gen_random_algorithm(env, seed + 600)
            for kind in ("const", "two", "two-plus"):
                rule = TransformedRule(kind, alg, check_feasible=True)
                for v in env.inputs():
                    assert is_feasible(rule(v), env.feasibility)

    def test_outputs_feasible_three_values(self):
        for seed in range(4):
            env = gen_random_environment(3, LAD3, seed + 700)
            alg = gen_random_algorithm(env, seed + 800)
            rule = TransformedRule("multi", alg, check_feasible=True)
            for v in env.inputs():
                assert is_feasible(rule(v), env.feasibility)


class TestSharedAnswerTable:
    @pytest.mark.parametrize(
        "kind, ladder, raised", [("multi", (1, 5, 25), 23), ("two-plus", (1, 9), 7)]
    )
    @pytest.mark.parametrize("shared_state", [True, False])
    def test_infeasible_answer_raises_in_every_evaluation_that_reads_it(
        self, kind, ladder, raised, shared_state
    ):
        # 111 at input 000 is infeasible; the table must never hold it, or
        # later evaluations would reuse it unchecked and raise less often.
        feas = FeasibilitySet(3, frozenset({bits("100")}))

        def rule(v):
            return bits("111") if v.levels == (0, 0, 0) else bits("000")

        alg = Algorithm(Environment(3, ValueLadder.of(*ladder), feas), rule)
        transformed = TransformedRule(kind, alg, check_feasible=True, shared_state=shared_state)
        count = 0
        for v in alg.env.inputs():
            try:
                transformed(v)
            except InfeasibleOutputError:
                count += 1
        assert count == raised

    # (max_queries, max_radius) after an exhaustive monotonicity check, as
    # (shared state, fresh state). The shared multi count is low: a shared
    # table answers unqueried what earlier evaluations asked, so it counts
    # misses only. It should change only when rules report exact per-input
    # footprints (ROADMAP item 10).
    @pytest.mark.parametrize(
        "kind, n, ladder, expected",
        [
            ("multi", 5, (1, 5, 25), [(71, 5), (171, 5)]),
            ("two-plus", 8, (1, 9), [(92, 3), (92, 3)]),
            ("two", 8, (1, 9), [(37, 2), (37, 2)]),
        ],
    )
    def test_query_accounting_is_pinned(self, kind, n, ladder, expected):
        env = gen_random_environment(n, ValueLadder.of(*ladder), 2)
        alg = gen_random_algorithm(env, 3)
        got = []
        for shared_state in (True, False):
            rule = TransformedRule(kind, alg, shared_state=shared_state)
            check_monotone(CachedRule(rule), env)
            got.append((rule.max_queries, rule.max_radius))
        assert got == expected


class TestBoxReuse:
    # A rule re-centres one black box per evaluation. After an evaluation
    # that raised, the next input must see what a new rule's box sees.
    @pytest.mark.parametrize(
        "limit, error",
        [
            ({"query_budget": 20}, QueryBudgetExceeded),
            ({"hamming_radius": 3}, HammingRestrictionViolation),
        ],
        ids=["budget", "radius"],
    )
    @pytest.mark.parametrize("shared_state", [True, False])
    def test_evaluation_after_a_raise_matches_a_new_rule(self, limit, error, shared_state):
        alg = _query_order_algorithm("k3-n4")
        inputs = list(alg.env.inputs())
        checked = 0
        for v, after in zip(inputs, inputs[1:]):
            rule = TransformedRule("multi", alg, shared_state=shared_state, **limit)
            try:
                rule(v)
                continue
            except error:
                pass
            new = TransformedRule("multi", alg, shared_state=shared_state, **limit)
            try:
                expected = new(after)
            except error:
                with pytest.raises(error):
                    rule(after)
                continue
            assert rule(after) == expected
            assert (rule.max_queries, rule.max_radius) == (new.max_queries, new.max_radius)
            checked += 1
        assert checked >= 5


class TestWrongLengthAllocation:
    @pytest.mark.parametrize("answer", ["11", "1111", "00"])
    @pytest.mark.parametrize(
        "transform, ladder",
        [(t_two, (1, 5)), (t_two_plus, (1, 5)), (t_multi, (1, 5, 25))],
        ids=["two", "two-plus", "multi"],
    )
    def test_raises_at_the_first_answer(self, transform, ladder, answer):
        alg = constant_algorithm(3, bits(answer), [bits("111")], ValueLadder.of(*ladder))
        bb = centred(alg, vec(1, 0, 1))
        with pytest.raises(DimensionError):
            transform(bb)
        # The first query raised: the wrong-length answer is refused, not logged.
        assert len(bb.log) == 0


class TestTransformedRule:
    def test_registry_rejects_unknown_kind(self):
        with pytest.raises(ParameterError):
            TransformedRule("frobnicate", gen_all_ones(2, LAD2))

    @pytest.mark.parametrize(
        "kind, values, message",
        [
            ("two", (1, 10, 100), "transformation 'two' takes 2 ladder values, got 3"),
            ("two-plus", (1, 10, 100), "transformation 'two-plus' takes 2 ladder values, got 3"),
            ("multi", (1, 100), "transformation 'multi' takes 3 ladder values, got 2"),
            ("multi", (1, 10, 100, 1000), "transformation 'multi' takes 3 ladder values, got 4"),
            ("multi", (1, 2, 3, 4, 5), "transformation 'multi' takes 3 ladder values, got 5"),
        ],
        ids=["two-3", "two-plus-3", "multi-2", "multi-4", "multi-5"],
    )
    def test_refuses_a_ladder_the_kind_does_not_take(self, kind, values, message):
        # Refused when the rule is built, before any evaluation.
        with pytest.raises(ParameterError) as refused:
            TransformedRule(kind, gen_all_ones(2, ValueLadder.of(*values)))
        assert str(refused.value) == message

    @pytest.mark.parametrize("kind", ["const", "identity"])
    @pytest.mark.parametrize("values", [(1, 100), (1, 10, 100), (1, 2, 3, 4, 5)])
    def test_const_and_identity_take_any_ladder(self, kind, values):
        rule = TransformedRule(kind, gen_all_ones(2, ValueLadder.of(*values)))
        assert rule(vec(1, 0)) == bits("11")

    def test_bind(self):
        alg = gen_all_ones(2, LAD2)
        rule = TransformedRule("two", alg)
        assert rule(vec(1, 0)) == bits("10")

    def test_identity_kind(self):
        alg = gen_all_ones(2, LAD2)
        rule = TransformedRule("identity", alg)
        assert rule(vec(0, 1)) == bits("11")
        assert rule.max_queries == 1
        assert rule.max_radius == 0

    def test_radius_statistics(self):
        alg = gen_all_ones(4, LAD2)
        rule = TransformedRule("two", alg)
        for v in alg.env.inputs():
            rule(v)
        assert rule.max_radius <= 2

    def test_runs_under_radius_restriction(self):
        # t_two needs distance <= 2, so a strict limit of 3 never trips
        env = gen_random_environment(4, LAD2, 900)
        alg = gen_random_algorithm(env, 901)
        rule = TransformedRule("two", alg, hamming_radius=3, shared_state=False)
        for v in env.inputs():
            rule(v)
        assert rule.max_radius <= 2


class TestKernelContract:
    # A kernel takes only its black box: the evaluated input is the box's
    # center, and the box's reuse policy decides what carries over.
    @pytest.mark.parametrize("kind, values", list(kind_ladders()))
    @pytest.mark.parametrize("reuse", [False, True])
    def test_kernel_on_a_centred_box_is_the_rule(self, kind, values, reuse):
        env = gen_random_environment(3, ValueLadder.of(*values), 4400)
        alg = gen_random_algorithm(env, 4500)
        kernel = TRANSFORMATIONS[kind][0]
        rule = TransformedRule(kind, alg, shared_state=reuse)
        bb = InstrumentedBlackBox(alg, shared_state=reuse)
        for v in env.inputs():
            bb.recenter(input_index(v.levels, env.k))
            assert kernel(bb) == rule(v)

    @pytest.mark.parametrize("kind, values", list(kind_ladders()))
    def test_rule_refuses_a_level_off_the_ladder(self, kind, values):
        # A level off the ladder names no input: its index would alias another.
        rule = TransformedRule(kind, gen_all_ones(2, ValueLadder.of(*values)))
        for levels in [(len(values), 0), (0, len(values) + 1), (-1, 0)]:
            with pytest.raises(ParameterError, match="off the"):
                rule(vec(*levels))
        with pytest.raises(DimensionError):
            rule(vec(0, 0, 0))
        assert rule.max_queries == 0
        assert rule(vec(0, 0)) == bits("11")

    @pytest.mark.parametrize("kind, values", list(kind_ladders()))
    def test_rule_refuses_an_index_outside_the_inputs(self, kind, values):
        env = gen_random_environment(2, ValueLadder.of(*values), 4600)
        rule = TransformedRule(kind, gen_random_algorithm(env, 4700))
        size = env.input_count()
        for u in (-1, size, size + 1):
            with pytest.raises(ParameterError, match=rf"^center index {u} outside \[0, {size}\)$"):
                rule(u)
        assert rule.max_queries == 0
        for v in env.inputs():
            assert rule(input_index(v.levels, env.k)) == rule(v)
