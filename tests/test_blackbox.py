"""Query layer: logging, budgets, Hamming restrictions, the box's answers."""

import gc
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcbox import (
    Allocation,
    DimensionError,
    HammingRestrictionViolation,
    InfeasibleOutputError,
    InstrumentedBlackBox,
    ParameterError,
    QueryBudgetExceeded,
    CachedRule,
    TransformedRule,
    ValuationVector,
    check_monotone,
    gen_all_ones,
    gen_random_algorithm,
    gen_random_environment,
    gen_thm1,
    is_feasible,
    tabulate,
    welfare_report,
)
from dcbox.blackbox import Algorithm
from dcbox.model import Environment, FeasibilitySet, ValueLadder, input_at, input_index
from oracles import counting, hamming_distance, vec


def ix(v, k=2):
    """The index the black box takes for input v."""
    return input_index(v.levels, k)


def centred(alg, center, **options):
    """A new black box over alg, re-centred at the index `center`."""
    bb = InstrumentedBlackBox(alg, **options)
    bb.recenter(center)
    return bb


class TestHammingDistance:
    def test_identity(self):
        assert hamming_distance(vec(1, 0, 0), vec(1, 0, 0)) == 0

    def test_swap(self):
        assert hamming_distance(vec(1, 0), vec(0, 1)) == 2

    def test_coordinatewise(self):
        # positions 1 and 4 differ
        assert hamming_distance(vec(1, 1, 0, 0, 0), vec(1, 0, 0, 0, 1)) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            hamming_distance(vec(1, 0), vec(1, 0, 0))


class TestInstrumentedBlackBox:
    def test_logs_every_query(self):
        alg = gen_all_ones(3)
        bb = InstrumentedBlackBox(alg)
        out = bb.query(ix(vec(1, 0, 1)))
        assert out == Allocation((1, 1, 1))
        assert len(bb.log) == 1
        bb.query(ix(vec(0, 0, 0)))
        assert len(bb.log) == 2
        assert [input_at(u, 3, 2) for u in bb.log] == [vec(1, 0, 1), vec(0, 0, 0)]

    def test_zero_budget(self):
        bb = InstrumentedBlackBox(gen_all_ones(2), budget=0)
        with pytest.raises(QueryBudgetExceeded):
            bb.query(ix(vec(0, 0)))
        assert len(bb.log) == 0

    def test_budget_counts_successes_only(self):
        bb = InstrumentedBlackBox(gen_all_ones(2), budget=1)
        bb.query(ix(vec(0, 0)))
        with pytest.raises(QueryBudgetExceeded):
            bb.query(ix(vec(1, 0)))
        assert len(bb.log) == 1

    def test_strict_hamming_radius(self):
        # center (h^6, l^6), radius 3: distance 3 is not < 3
        center = vec(*([1] * 6 + [0] * 6))
        bb = centred(gen_all_ones(12), ix(center), hamming_radius=3)
        probe = vec(*([0] * 3 + [1] * 3 + [0] * 6))
        assert hamming_distance(center, probe) == 3
        with pytest.raises(HammingRestrictionViolation):
            bb.query(ix(probe))
        inside = vec(*([0] * 2 + [1] * 4 + [0] * 6))
        bb.query(ix(inside))  # distance 2 < 3 is fine
        assert bb.max_radius == 2

    def test_center_without_radius_tracks_but_rejects_nothing(self):
        center = vec(1, 1, 0, 0)
        bb = centred(gen_all_ones(4), ix(center))
        assert bb.max_radius == 0
        bb.query(ix(vec(1, 0, 0, 0)))
        bb.query(ix(vec(0, 0, 1, 1)))  # the farthest input is allowed
        bb.query(ix(center))
        assert len(bb.log) == 3
        assert bb.max_radius == 4

    def test_refused_queries_do_not_count_toward_max_radius(self):
        center = vec(0, 0, 0)
        far = vec(1, 1, 1)
        budget = centred(gen_all_ones(3), ix(center), budget=1)
        budget.query(ix(vec(1, 0, 0)))
        with pytest.raises(QueryBudgetExceeded):
            budget.query(ix(far))
        radius = centred(gen_all_ones(3), ix(center), hamming_radius=2)
        radius.query(ix(vec(0, 1, 0)))
        with pytest.raises(HammingRestrictionViolation):
            radius.query(ix(far))
        feas = FeasibilitySet(3, frozenset({Allocation((1, 0, 0))}))
        env = Environment(3, ValueLadder.of(1, 2), feas)

        def rule(v):
            return Allocation((1, 1, 1)) if v == far else Allocation((1, 0, 0))

        alg = Algorithm(env, rule)
        checked = centred(alg, ix(center), check_feasible=True)
        checked.query(ix(vec(0, 0, 1)))
        with pytest.raises(InfeasibleOutputError):
            checked.query(ix(far))
        for bb in (budget, radius, checked):
            assert len(bb.log) == 1
            assert bb.max_radius == 1

    def test_budget_and_radius_errors_are_distinct(self):
        assert not issubclass(QueryBudgetExceeded, HammingRestrictionViolation)
        assert not issubclass(HammingRestrictionViolation, QueryBudgetExceeded)

    def test_log_replays(self):
        inst = gen_thm1(2, seed=5)
        bb = InstrumentedBlackBox(inst.algorithm)
        bb.query(ix(inst.special_input))
        for v in list(inst.algorithm.env.inputs())[:40]:
            bb.query(ix(v))
        n = inst.algorithm.env.n
        for queried, answered in bb.log.items():
            assert inst.algorithm(input_at(queried, n, 2)) == answered

    def test_debug_mode_catches_infeasible_output(self):
        feas = FeasibilitySet(2, frozenset({Allocation((1, 0))}))
        env = Environment(2, ValueLadder.of(1, 2), feas)
        broken = Algorithm(env, lambda v: Allocation((1, 1)), name="broken")
        bb = InstrumentedBlackBox(broken, check_feasible=True)
        with pytest.raises(InfeasibleOutputError):
            bb.query(ix(vec(0, 0)))


@st.composite
def center_and_query(draw):
    """A ladder size k in {2, 3, 4}, a center and a query of n agents."""
    k = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, 6))
    levels = st.lists(st.integers(0, k - 1), min_size=n, max_size=n).map(tuple)
    return k, ValuationVector(draw(levels)), ValuationVector(draw(levels))


class TestIndexQueries:
    @given(center_and_query())
    def test_distance_matches_oracle_at_the_radius_boundary(self, case):
        k, center, u = case
        alg = gen_all_ones(center.n, ValueLadder.of(*range(1, k + 1)))
        d = hamming_distance(u, center)
        c = ix(center, k)
        at_boundary = centred(alg, c, hamming_radius=d)
        with pytest.raises(HammingRestrictionViolation):
            at_boundary.query(ix(u, k))
        inside = centred(alg, c, hamming_radius=d + 1)
        inside.query(ix(u, k))
        assert inside.max_radius == d
        assert list(inside.log) == [ix(u, k)]

    @given(center_and_query())
    def test_index_round_trips(self, case):
        k, _, u = case
        assert input_at(ix(u, k), u.n, k) == u
        assert 0 <= ix(u, k) < k**u.n

    def test_index_outside_range_is_rejected(self):
        alg = gen_all_ones(3, ValueLadder.of(1, 2, 3))
        bb = InstrumentedBlackBox(alg)
        for u in (-1, 27, 1000):
            with pytest.raises(ParameterError):
                bb.query(u)
        bb.query(26)
        assert len(bb.log) == 1

    def test_center_outside_range_is_rejected(self):
        # A rule centres its box at the index it is called with.
        for limits in ({}, {"hamming_radius": 1}):
            rule = TransformedRule("identity", gen_all_ones(3), **limits)
            for u in (8, -1):
                with pytest.raises(ParameterError, match=rf"^center index {u} outside \[0, 8\)$"):
                    rule(u)

    def test_recenter_outside_range_is_rejected(self):
        bb = InstrumentedBlackBox(gen_all_ones(3), hamming_radius=1)
        with pytest.raises(ParameterError):
            bb.recenter(8)

    def test_transformed_rule_rejects_input_of_wrong_length(self):
        rule = TransformedRule("two", gen_all_ones(3))
        with pytest.raises(DimensionError):
            rule(vec(1, 0))

    @pytest.mark.parametrize(
        "kind, ladder", [("two", (1, 9)), ("two-plus", (1, 9)), ("multi", (1, 4, 16))]
    )
    @pytest.mark.parametrize("shared_state", [True, False])
    def test_rule_runs_once_per_distinct_input(self, kind, ladder, shared_state):
        env = gen_random_environment(4, ValueLadder.of(*ladder), 8100)
        alg = gen_random_algorithm(env, 8200)
        counted, calls = counting(alg)
        for _ in range(2):
            rule = TransformedRule(kind, counted, shared_state=shared_state)
            for v in list(env.inputs()) * 2:
                rule(v)
            assert set(calls.values()) == {1}
            calls.clear()


class TestAnswerReuse:
    def infeasible_at_zero(self):
        # 111 at input 00 is infeasible under the only maximal allocation 100
        feas = FeasibilitySet(3, frozenset({Allocation((1, 0, 0))}))
        env = Environment(3, ValueLadder.of(1, 2), feas)

        def rule(v):
            return Allocation((1, 1, 1)) if v.levels == (0, 0, 0) else Allocation((0, 0, 0))

        return Algorithm(env, rule, name="over")

    def test_table_stores_only_checked_answers(self):
        bb = InstrumentedBlackBox(self.infeasible_at_zero(), check_feasible=True)
        for _ in range(2):
            with pytest.raises(InfeasibleOutputError):
                bb.query(0)
        assert bb.query(1) == Allocation((0, 0, 0))
        assert bb.answers == {1: Allocation((0, 0, 0))}

    def test_shared_box_knows_answers_from_earlier_evaluations(self):
        alg = self.infeasible_at_zero()
        bb = InstrumentedBlackBox(alg, shared_state=True, check_feasible=True)
        bb.query(5)
        with pytest.raises(InfeasibleOutputError):
            bb.query(0)
        bb.recenter(3)
        assert bb.known is bb.answers
        assert set(bb.known) == {5}
        assert len(bb.log) == 0

    def test_unshared_box_knows_only_its_own_answers(self):
        bb = InstrumentedBlackBox(gen_all_ones(3))
        bb.query(5)
        bb.recenter(0)
        assert bb.known == {}
        bb.query(3)
        assert bb.known == {3: Allocation((1, 1, 1))}
        assert set(bb.answers) == {5, 3}

    @pytest.mark.parametrize("kind, ladder", [("two-plus", (1, 9)), ("multi", (1, 4, 16))])
    @pytest.mark.parametrize("shared_state", [True, False])
    def test_each_query_is_logged_once(self, kind, ladder, shared_state, monkeypatch):
        # The log is the evaluation's map from index to answer and, without
        # reuse, the `known` that kernels read: one entry per query.
        env = gen_random_environment(4, ValueLadder.of(*ladder), 8500)
        rule = TransformedRule(kind, gen_random_algorithm(env, 8600), shared_state=shared_state)
        bb = rule._box
        queried = []
        query = InstrumentedBlackBox.query
        monkeypatch.setattr(
            InstrumentedBlackBox, "query", lambda box, u: queried.append(u) or query(box, u)
        )
        for u in range(env.input_count()):
            queried.clear()
            rule(u)
            assert bb.known is (bb.answers if shared_state else bb.log)
            assert list(bb.log) == queried
            assert all(bb.log[w] is bb.answers[w] for w in queried)

    def test_reuse_excludes_budget_and_radius(self):
        # Under a limit, answers from earlier evaluations would bypass it.
        alg = gen_all_ones(3)
        for limit in ({"budget": 4}, {"hamming_radius": 2}):
            bb = InstrumentedBlackBox(alg, shared_state=True, **limit)
            bb.query(1)
            bb.recenter(0)
            assert not bb.reuse_answers
            assert (bb.known, bb.memo) == ({}, {})
            assert set(bb.answers) == {1}


class TestLiveAnswerTable:
    @pytest.mark.parametrize(
        "kind, ladder",
        [
            ("identity", (1, 9)),
            ("const", (1, 9)),
            ("two", (1, 9)),
            ("two-plus", (1, 9)),
            ("multi", (1, 4, 16)),
        ],
    )
    def test_welfare_report_calls_the_rule_once_per_input(self, kind, ladder):
        env = gen_random_environment(4, ValueLadder.of(*ladder), 8300)
        alg, calls = counting(gen_random_algorithm(env, 8400))
        welfare_report(CachedRule(TransformedRule(kind, alg)), alg, env)
        assert len(calls) == env.input_count()
        assert set(calls.values()) == {1}

    @pytest.mark.parametrize("kind, ladder", [("multi", (1, 5, 25)), ("two-plus", (1, 9))])
    def test_direct_calls_leave_query_counts_alone(self, kind, ladder):
        env = gen_random_environment(4, ValueLadder.of(*ladder), 2)
        alg = gen_random_algorithm(env, 3)
        undisturbed = TransformedRule(kind, alg)
        for v in env.inputs():
            undisturbed(v)
        disturbed = TransformedRule(kind, alg)
        for v in env.inputs():
            for w in env.inputs():
                assert alg(w) == alg.rule(w)
            disturbed(v)
        assert (disturbed.max_queries, disturbed.max_radius) == (
            undisturbed.max_queries,
            undisturbed.max_radius,
        )
        assert undisturbed.max_queries > 1  # the shared table has misses to count

    def test_input_of_another_shape_is_never_answered_from_the_table(self):
        env = gen_all_ones(3).env
        alg, calls = counting(Algorithm(env, lambda v: Allocation.full(v.n)))
        rule = TransformedRule("identity", alg)
        for v in alg.env.inputs():
            rule(v)
        calls.clear()
        # Each has index 1 on two values, which names input 100 in the table.
        for levels in [(1, 0), (1, 0, 0, 0), (1,)]:
            assert alg(ValuationVector(levels)).n == len(levels)
        assert alg(vec(3, 0, 0)) == Allocation((1, 1, 1))  # index 3 would name 110
        assert sorted(calls) == [(1,), (1, 0), (1, 0, 0, 0), (3, 0, 0)]

    def test_a_vector_goes_to_the_rule_while_the_box_holds_it(self):
        alg, calls = counting(gen_all_ones(3))
        rule = TransformedRule("identity", alg)
        rule(vec(1, 0, 1))
        assert list(rule._box.answers) == [5]
        calls.clear()
        assert alg(vec(1, 0, 1)) == Allocation.full(3)
        assert calls == {(1, 0, 1): 1}
        assert alg(5) == Allocation.full(3)  # the index reads the box
        assert calls == {(1, 0, 1): 1}

    def test_an_index_reads_the_table_and_a_miss_stores_nothing(self):
        alg, calls = counting(gen_all_ones(3))
        rule = TransformedRule("const", alg)
        rule(vec(1, 1, 0))  # const queries the all-lowest input, index 0, only
        assert list(rule._box.answers) == [0]
        calls.clear()
        assert alg(0) == Allocation.full(3)
        assert not calls
        # Index 5 is input (1, 0, 1): decoded, answered, not stored.
        assert alg(5) == Allocation.full(3)
        assert alg(5) == Allocation.full(3)
        assert calls == {(1, 0, 1): 2}
        assert list(rule._box.answers) == [0]

    def test_an_index_miss_refuses_a_wrong_length_answer(self):
        env = gen_all_ones(3).env
        alg = Algorithm(env, lambda v: Allocation((1, 1)), name="short")
        with pytest.raises(DimensionError, match="^allocation of length 2 vs input of length 3$"):
            alg(3)  # no live table: every index is a miss
        bb = InstrumentedBlackBox(alg)
        with pytest.raises(DimensionError):
            alg(3)
        assert bb.answers == {}

    def test_an_index_outside_the_inputs_is_refused(self):
        alg, calls = counting(gen_all_ones(3))
        TransformedRule("identity", alg)(vec(0, 0, 0))
        for u in (-1, 8):
            with pytest.raises(ParameterError, match=rf"^input index {u} outside \[0, 8\)$"):
                alg(u)
        assert calls == {(0, 0, 0): 1}

    def test_table_dies_with_the_last_rule(self):
        alg, calls = counting(gen_all_ones(3))
        rule = CachedRule(TransformedRule("two", alg))
        check_monotone(rule, alg.env)
        box = weakref.ref(rule.rule._box)
        assert alg.live_box() is box()
        calls.clear()
        alg(5)  # input (1, 0, 1)
        assert not calls
        del rule
        gc.collect()
        assert box() is None
        assert alg.live_box() is None
        alg(5)
        assert calls == {(1, 0, 1): 1}


class TestThm1Fakes:
    def test_fake_allocation_is_feasible(self):
        # fakes (m/2 - 1 ones in the first 2m positions, ones on the last m)
        # are members of the generated feasibility set
        inst = gen_thm1(2, seed=9)
        for fake in inst.fakes:
            assert is_feasible(fake, inst.algorithm.env.feasibility) is True


class TestTabulate:
    def test_round_trips_behavior(self):
        inst = gen_thm1(2, seed=3)
        table = tabulate(inst.algorithm)
        looked_up = table.lookup()
        for v in inst.algorithm.env.inputs():
            assert looked_up(v) == inst.algorithm(v)

    def test_majority_default_compresses(self):
        inst = gen_thm1(2, seed=3)
        table = tabulate(inst.algorithm)
        assert table.default == inst.default_allocation
        assert len(table.cases) == 1

    def test_refuses_oversized_spaces(self):
        # 2**17 inputs, above the limit of 65536
        with pytest.raises(ParameterError):
            tabulate(gen_all_ones(17))
