"""Transformations: classification, step traces, locality, determinism."""

import hashlib

import pytest

from dcbox import (
    Allocation,
    DimensionError,
    Environment,
    FeasibilitySet,
    HammingRestrictionViolation,
    InstrumentedBlackBox,
    ParameterError,
    ProvisionalState,
    QueryBudgetExceeded,
    TransformedRule,
    ValueLadder,
    ValuationVector,
    classify_allocation,
    gen_all_ones,
    gen_random_algorithm,
    gen_random_environment,
    hamming_distance,
    higher_than,
    inputs_at_distance,
    is_feasible,
    t_const,
    t_multi,
    t_two,
    t_two_plus,
)
from dcbox.blackbox import Algorithm

LAD2 = ValueLadder.of(1, 100)
LAD3 = ValueLadder.of(1, 10, 100)


def bits(text):
    return Allocation.from_string(text)


def vec(*levels):
    return ValuationVector(tuple(levels))


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


class TestClassification:
    def test_high_class_wins(self):
        assert classify_allocation(bits("11"), vec(1, 0)) == 1

    def test_empty_allocation(self):
        assert classify_allocation(bits("000"), vec(1, 0, 1)) is None

    def test_mid_class(self):
        # highest level under a 1 is the middle one
        assert classify_allocation(bits("011"), vec(2, 1, 0), LAD3) == 1

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
        bb = InstrumentedBlackBox(alg)
        assert t_const(bb, vec(1, 1, 1, 1)) == bits("1111")

    def test_output_ignores_input(self):
        # A(llll) = 0011; t_const returns it even at the all-high input
        low_answer = bits("0011")
        alg = constant_algorithm(4, low_answer, {low_answer})
        bb = InstrumentedBlackBox(alg)
        assert t_const(bb, vec(1, 1, 1, 1)) == low_answer

    def test_single_query_at_all_lowest(self):
        alg = gen_all_ones(3, LAD2)
        bb = InstrumentedBlackBox(alg)
        t_const(bb, vec(1, 0, 1))
        assert len(bb.log) == 1
        assert bb.log[0][0] == vec(0, 0, 0)


class TestTTwo:
    def test_all_ones_keeps_extremes_only(self):
        alg = gen_all_ones(3, LAD2)
        rule = TransformedRule("two", alg)
        full = {v.levels for v in alg.env.inputs() if rule(v) == bits("111")}
        assert full == {(1, 1, 1), (0, 0, 0)}

    def test_zeroes_lows_when_high_present(self):
        alg = gen_all_ones(2, LAD2)
        bb = InstrumentedBlackBox(alg)
        assert t_two(bb, vec(1, 0)) == bits("10")

    def test_pass_through_when_no_candidate(self):
        # A constant at (0,1) never yields a 1 on the high position of (h,l)
        alg = constant_algorithm(2, bits("01"), {bits("01"), bits("10")})
        bb = InstrumentedBlackBox(alg)
        assert t_two(bb, vec(1, 0)) == bits("01")

    def test_adopts_neighbor_allocation(self):
        # high answer only at (h,h); at (h,l) step 2 adopts it and zeroes lows
        def rule(v):
            return bits("11") if v.levels == (1, 1) else bits("01")

        feas = FeasibilitySet(2, frozenset({bits("11")}))
        alg = Algorithm(Environment(2, LAD2, feas), rule)
        bb = InstrumentedBlackBox(alg)
        assert t_two(bb, vec(1, 0)) == bits("10")

    def test_queries_stay_within_distance_two(self):
        for seed in range(5):
            env = gen_random_environment(5, LAD2, seed)
            alg = gen_random_algorithm(env, seed + 30)
            for v in env.inputs():
                bb = InstrumentedBlackBox(alg)
                t_two(bb, v)
                assert bb.max_radius_from(v) <= 2

    def test_rejects_wider_ladders(self):
        alg = gen_all_ones(2, LAD3)
        with pytest.raises(ParameterError):
            t_two(InstrumentedBlackBox(alg), vec(0, 0))

    def test_deterministic_logs(self):
        env = gen_random_environment(4, LAD2, 7)
        alg = gen_random_algorithm(env, 77)
        for v in env.inputs():
            first = InstrumentedBlackBox(alg)
            second = InstrumentedBlackBox(alg)
            assert t_two(first, v) == t_two(second, v)
            assert first.log == second.log


class TestTTwoPlus:
    def test_all_high_input_unchanged(self):
        alg = gen_all_ones(3, LAD2)
        bb = InstrumentedBlackBox(alg)
        assert t_two_plus(bb, vec(1, 1, 1)) == bits("111")

    def test_keeps_low_when_no_conflict(self):
        # contrast with t_two: the raised neighbor's provisional allocation
        # keeps the bit, so the low position is not zeroed
        alg = gen_all_ones(2, LAD2)
        bb = InstrumentedBlackBox(alg)
        assert t_two_plus(bb, vec(1, 0)) == bits("11")

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

    def test_memo_is_stable(self):
        env = gen_random_environment(4, LAD2, 13)
        alg = gen_random_algorithm(env, 131)
        state = ProvisionalState()
        v = vec(1, 0, 1, 0)
        first = t_two_plus(InstrumentedBlackBox(alg), v, state)
        again = t_two_plus(InstrumentedBlackBox(alg), v, state)
        assert first == again
        assert state.stage[v.levels] in {"original", "upgraded", "zeroed"}

    def test_queries_stay_within_distance_five(self):
        for seed in range(4):
            env = gen_random_environment(4, LAD2, seed + 20)
            alg = gen_random_algorithm(env, seed + 40)
            for v in env.inputs():
                bb = InstrumentedBlackBox(alg)
                t_two_plus(bb, v)
                assert bb.max_radius_from(v) <= 5

    def test_rejects_wider_ladders(self):
        alg = gen_all_ones(2, LAD3)
        with pytest.raises(ParameterError):
            t_two_plus(InstrumentedBlackBox(alg), vec(0, 0))


class TestTMulti:
    def test_zeroes_below_top_class(self):
        alg = gen_all_ones(3, LAD3)
        bb = InstrumentedBlackBox(alg)
        assert t_multi(bb, vec(2, 1, 0)) == bits("100")

    def test_all_low_input_untouched(self):
        alg = gen_all_ones(3, LAD3)
        bb = InstrumentedBlackBox(alg)
        assert t_multi(bb, vec(0, 0, 0)) == bits("111")

    def test_upgrades_to_high_class(self):
        # (2,2,0) at distance 1 answers with a high-class allocation; the
        # class-raising first step adopts it and the lows are zeroed
        def rule(v):
            if sum(v.levels) >= 4:
                return bits("100")
            return bits("001")

        feas = FeasibilitySet(3, frozenset({bits("101")}))
        alg = Algorithm(Environment(3, LAD3, feas), rule)
        out = t_multi(InstrumentedBlackBox(alg), vec(2, 0, 0))
        assert out == bits("100")

    def test_four_value_ladder(self):
        lad4 = ValueLadder.of(1, 10, 100, 1000)
        alg = gen_all_ones(4, lad4)
        bb = InstrumentedBlackBox(alg)
        assert t_multi(bb, vec(3, 2, 1, 0)) == bits("1000")

    def test_queries_stay_within_distance_five_for_three_values(self):
        for seed in range(3):
            env = gen_random_environment(4, LAD3, seed + 60)
            alg = gen_random_algorithm(env, seed + 90)
            for v in env.inputs():
                bb = InstrumentedBlackBox(alg)
                t_multi(bb, v)
                assert bb.max_radius_from(v) <= 5

    def test_rejects_two_value_ladders(self):
        alg = gen_all_ones(2, LAD2)
        with pytest.raises(ParameterError):
            t_multi(InstrumentedBlackBox(alg), vec(0, 0))

    def test_rejects_allocation_of_wrong_length(self):
        alg = constant_algorithm(3, bits("10"), [bits("111")], ladder=LAD3)
        with pytest.raises(DimensionError):
            t_multi(InstrumentedBlackBox(alg), vec(2, 1, 0))


def _literal_two_plus(alg, v):
    """Independent oracle: eager, unmemoized reimplementation of the
    provisional transformation, recomputing every simulation from scratch."""

    def high_count(x, u):
        return sum(1 for lvl, b in zip(u.levels, x.bits) if b and lvl == 1)

    def zero_lows(x, u):
        return Allocation(tuple(b if lvl == 1 else 0 for b, lvl in zip(x.bits, u.levels)))

    def step1(u):
        x = alg(u)
        hc = high_count(x, u)
        if hc:
            for w in inputs_at_distance(u, 1, 2):
                c = alg(w)
                if high_count(c, u) > hc:
                    return c
        return x

    def steps_1_to_5(u):
        original = alg(u)
        cur = step1(u)
        if high_count(cur, u) == 0:
            for w in inputs_at_distance(u, 1, 2):
                c = step1(w)
                if high_count(c, u):
                    cur = c
                    break
        if high_count(cur, u) == 0:
            for w in inputs_at_distance(u, 2, 2):
                c = step1(w)
                if high_count(c, u):
                    cur = c
                    break
        if high_count(cur, u) > high_count(original, u):
            cur = zero_lows(cur, u)
        return cur

    cur = steps_1_to_5(v)
    result = list(cur.bits)
    for i, lvl in enumerate(v.levels):
        if lvl == 0 and result[i] == 1:
            if steps_1_to_5(v.with_level(i, 1)).bits[i] == 0:
                result[i] = 0
    return Allocation(tuple(result))


def _literal_multi3(alg, v):
    """Independent oracle for the three-value ladder: the five scans written
    out one by one, no caching, no scan skipping."""

    def classify(x, u):
        best = -1
        for lvl, b in zip(u.levels, x.bits):
            if b and lvl > best:
                best = lvl
        return max(best, 0)

    cur = alg(v)
    c0 = classify(cur, v)
    for u in inputs_at_distance(v, 1, 3):  # class increase
        if classify(alg(u), v) > c0:
            cur = alg(u)
            break
    if classify(cur, v) == 0:
        for u in inputs_at_distance(v, 2, 3):  # low -> mid
            if classify(alg(u), v) == 1:
                cur = alg(u)
                break
    if classify(cur, v) != 2:
        for u in inputs_at_distance(v, 3, 3):  # below-high -> high
            if classify(alg(u), v) == 2:
                cur = alg(u)
                break
    if classify(cur, v) == 1:
        for u in inputs_at_distance(v, 4, 3):  # mid -> high
            if classify(alg(u), v) == 2:
                cur = alg(u)
                break
    if classify(cur, v) == 0:
        for u in inputs_at_distance(v, 5, 3):  # low -> high
            if classify(alg(u), v) == 2:
                cur = alg(u)
                break
    cls = classify(cur, v)
    return Allocation(tuple(b if lvl >= cls else 0 for b, lvl in zip(cur.bits, v.levels)))


def _literal_multi(alg, v):
    """Independent oracle for ladders with k >= 4: the general step table
    written out as loops, classing with classify_allocation and comparing
    with higher_than, no caching, no scan skipping."""
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
                assert rule(v) == _literal_two_plus(alg, v)

    def test_multi_matches_unmemoized_oracle(self):
        ladder = ValueLadder.of(1, 5, 25)
        for seed in range(3):
            env = gen_random_environment(4, ladder, 6000 + seed)
            alg = gen_random_algorithm(env, 6100 + seed)
            rule = TransformedRule("multi", alg)
            for v in env.inputs():
                assert rule(v) == _literal_multi3(alg, v)


    @pytest.mark.parametrize("shared_state", [True, False])
    @pytest.mark.parametrize("n", [3, 4])
    def test_multi_four_values_matches_unmemoized_oracle(self, n, shared_state):
        ladder = ValueLadder.of(1, 4, 16, 64)
        for seed in range(3):
            env = gen_random_environment(n, ladder, 6200 + seed)
            alg = gen_random_algorithm(env, 6300 + seed)
            rule = TransformedRule("multi", alg, shared_state=shared_state)
            for v in env.inputs():
                assert rule(v) == _literal_multi(alg, v)

# Per-input digests of t_multi's black-box query sequence with fresh state,
# in all_inputs order, recorded from the scan over ValuationVectors that the
# integer kernel replaced: (n, ladder, environment seed, algorithm seed).
QUERY_ORDER_CASES = {
    "k3-n4": (4, (1, 4, 16), 7103, 7203),
    "k4-n3": (3, (1, 4, 16, 64), 7301, 7401),
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
    "k4-n3": """
    dfd0ff4a 8988c640 3a410225 75a20859 223298b7 fa16494b e1b58abc aa0a1368
    41c668f1 1d3fb423 456053c2 8a741eb0 1312b661 bcd901d9 e05922a5 8460112c
    1cdd170a 1448f8c2 a352306d af38c375 7e71532f 600707ce d6e64282 4e3772dc
    426add02 d5e5ebd9 e1749281 6af34b33 6dbcdb38 88140406 62e18062 2696b24c
    b3d79e99 097740eb 35e42829 01e94ba4 7b1208b9 f8589beb 98cf8196 15356e60
    8fd0b90b 6ad48071 690d6936 db7b787f f11ae8d5 b45130a1 60315ffb 40bd2a37
    9de5d09d e4d66572 610f5449 43bd6c3f 14e38af5 a977a8eb 41ab431a 3e7e6876
    21c03cad 9b8680d9 ffa002e9 8624929d 3f69b355 a4a478bc 43c6af8a f0388e5b
    """,
}


def _query_order_algorithm(case):
    n, values, env_seed, alg_seed = QUERY_ORDER_CASES[case]
    env = gen_random_environment(n, ValueLadder.of(*values), env_seed)
    return gen_random_algorithm(env, alg_seed)


def _fresh_multi_logs(alg):
    """(input, queried inputs in order) per input, fresh state each time."""
    for v in alg.env.inputs():
        bb = InstrumentedBlackBox(alg)
        t_multi(bb, v)
        yield v, [u for u, _ in bb.log]


class TestMultiQueryOrder:
    @pytest.mark.parametrize("case", sorted(QUERY_ORDER_CASES))
    def test_query_sequence_per_input(self, case):
        got = [
            hashlib.sha256(repr([u.levels for u in log]).encode()).hexdigest()[:8]
            for _, log in _fresh_multi_logs(_query_order_algorithm(case))
        ]
        assert got == QUERY_ORDER_DIGESTS[case].split()

    @pytest.mark.parametrize("case", sorted(QUERY_ORDER_CASES))
    def test_budget_and_radius_one_too_small(self, case):
        alg = _query_order_algorithm(case)
        for v, log in _fresh_multi_logs(alg):
            tight = InstrumentedBlackBox(alg, budget=len(log) - 1)
            with pytest.raises(QueryBudgetExceeded):
                t_multi(tight, v)
            assert tight.query_count == len(log) - 1
            radius = max(hamming_distance(u, v) for u in log)
            near = InstrumentedBlackBox(alg, hamming_center=v, hamming_radius=radius)
            with pytest.raises(HammingRestrictionViolation):
                t_multi(near, v)
            first_far = next(i for i, u in enumerate(log) if hamming_distance(u, v) == radius)
            assert near.query_count == first_far

class TestFeasibilityInvariant:
    def test_output_is_subset_of_a_queried_allocation(self):
        # stronger than plain feasibility: the result never contains a 1
        # that no query returned at that position
        for seed in range(4):
            env = gen_random_environment(4, LAD2, seed + 1000)
            alg = gen_random_algorithm(env, seed + 1100)
            for v in env.inputs():
                for fn in (t_two, t_two_plus, t_const):
                    bb = InstrumentedBlackBox(alg)
                    out = fn(bb, v)
                    assert any(out.dominated_by(answer) for _, answer in bb.log)
        for seed in range(2):
            env = gen_random_environment(3, LAD3, seed + 1200)
            alg = gen_random_algorithm(env, seed + 1300)
            for v in env.inputs():
                bb = InstrumentedBlackBox(alg)
                out = t_multi(bb, v)
                assert any(out.dominated_by(answer) for _, answer in bb.log)

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


class TestTransformedRule:
    def test_registry_rejects_unknown_kind(self):
        with pytest.raises(ParameterError):
            TransformedRule("frobnicate", gen_all_ones(2, LAD2))

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
