"""Query layer: logging, budgets, Hamming restrictions, feasibility oracle."""

import pytest

from dcbox import (
    Allocation,
    DimensionError,
    FeasibilityOracle,
    HammingRestrictionViolation,
    InfeasibleOutputError,
    InstrumentedBlackBox,
    ParameterError,
    QueryBudgetExceeded,
    ValuationVector,
    gen_all_ones,
    gen_thm1,
    hamming_distance,
    tabulate,
)
from dcbox.blackbox import Algorithm
from dcbox.model import Environment, FeasibilitySet, ValueLadder


def vec(*levels):
    return ValuationVector(tuple(levels))


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
        out = bb.query(vec(1, 0, 1))
        assert out == Allocation((1, 1, 1))
        assert bb.query_count == 1
        bb.query(vec(0, 0, 0))
        assert bb.query_count == 2
        assert bb.log[0][0] == vec(1, 0, 1)

    def test_zero_budget(self):
        bb = InstrumentedBlackBox(gen_all_ones(2), budget=0)
        with pytest.raises(QueryBudgetExceeded):
            bb.query(vec(0, 0))
        assert bb.query_count == 0

    def test_budget_counts_successes_only(self):
        bb = InstrumentedBlackBox(gen_all_ones(2), budget=1)
        bb.query(vec(0, 0))
        with pytest.raises(QueryBudgetExceeded):
            bb.query(vec(1, 0))
        assert bb.query_count == 1

    def test_strict_hamming_radius(self):
        # center (h^6, l^6), radius 3: distance 3 is not < 3
        center = vec(*([1] * 6 + [0] * 6))
        bb = InstrumentedBlackBox(gen_all_ones(12), hamming_center=center, hamming_radius=3)
        probe = center.with_level(0, 0).with_level(1, 0).with_level(2, 0)
        assert hamming_distance(center, probe) == 3
        with pytest.raises(HammingRestrictionViolation):
            bb.query(probe)
        inside = center.with_level(0, 0).with_level(1, 0)
        bb.query(inside)  # distance 2 < 3 is fine
        assert bb.max_radius == 2

    def test_center_without_radius_tracks_but_rejects_nothing(self):
        center = vec(1, 1, 0, 0)
        bb = InstrumentedBlackBox(gen_all_ones(4), hamming_center=center)
        assert bb.max_radius == 0
        bb.query(vec(1, 0, 0, 0))
        bb.query(vec(0, 0, 1, 1))  # the farthest input is allowed
        bb.query(center)
        assert bb.query_count == 3
        assert bb.max_radius == 4

    def test_radius_without_center_is_rejected(self):
        with pytest.raises(ParameterError):
            InstrumentedBlackBox(gen_all_ones(2), hamming_radius=2)

    def test_refused_queries_do_not_count_toward_max_radius(self):
        center = vec(0, 0, 0)
        far = vec(1, 1, 1)
        budget = InstrumentedBlackBox(gen_all_ones(3), budget=1, hamming_center=center)
        budget.query(vec(1, 0, 0))
        with pytest.raises(QueryBudgetExceeded):
            budget.query(far)
        radius = InstrumentedBlackBox(gen_all_ones(3), hamming_center=center, hamming_radius=2)
        radius.query(vec(0, 1, 0))
        with pytest.raises(HammingRestrictionViolation):
            radius.query(far)
        feas = FeasibilitySet(3, frozenset({Allocation((1, 0, 0))}))
        env = Environment(3, ValueLadder.of(1, 2), feas)

        def rule(v):
            return Allocation((1, 1, 1)) if v == far else Allocation((1, 0, 0))

        checked = InstrumentedBlackBox(
            Algorithm(env, rule), hamming_center=center, check_feasible=True
        )
        checked.query(vec(0, 0, 1))
        with pytest.raises(InfeasibleOutputError):
            checked.query(far)
        for bb in (budget, radius, checked):
            assert bb.query_count == 1
            assert bb.max_radius == 1

    def test_budget_and_radius_errors_are_distinct(self):
        assert not issubclass(QueryBudgetExceeded, HammingRestrictionViolation)
        assert not issubclass(HammingRestrictionViolation, QueryBudgetExceeded)

    def test_log_replays(self):
        inst = gen_thm1(2, seed=5)
        bb = InstrumentedBlackBox(inst.algorithm)
        bb.query(inst.special_input)
        for v in list(inst.environment.inputs())[:40]:
            bb.query(v)
        for queried, answered in bb.log:
            assert inst.algorithm(queried) == answered

    def test_debug_mode_catches_infeasible_output(self):
        feas = FeasibilitySet(2, frozenset({Allocation((1, 0))}))
        env = Environment(2, ValueLadder.of(1, 2), feas)
        broken = Algorithm(env, lambda v: Allocation((1, 1)), name="broken")
        bb = InstrumentedBlackBox(broken, check_feasible=True)
        with pytest.raises(InfeasibleOutputError):
            bb.query(vec(0, 0))


class TestFeasibilityOracle:
    def test_counts_queries(self):
        inst = gen_thm1(2, seed=1)
        oracle = FeasibilityOracle(inst.feasibility)
        assert oracle.query(Allocation.zeros(8)) is True
        assert oracle.counter == 1

    def test_budget_boundary(self):
        inst = gen_thm1(2, seed=1)
        oracle = FeasibilityOracle(inst.feasibility, budget=1)
        oracle.query(Allocation.zeros(8))
        with pytest.raises(QueryBudgetExceeded):
            oracle.query(Allocation.zeros(8))

    def test_fake_allocation_is_feasible(self):
        # fakes (m/2 - 1 ones in the first 2m positions, ones on the last m)
        # are members of the generated feasibility set
        inst = gen_thm1(2, seed=9)
        oracle = FeasibilityOracle(inst.feasibility)
        for fake in inst.fakes:
            assert oracle.query(fake) is True
        assert oracle.counter == len(inst.fakes)


class TestTabulate:
    def test_round_trips_behavior(self):
        inst = gen_thm1(2, seed=3)
        table = tabulate(inst.algorithm)
        looked_up = table.lookup()
        for v in inst.environment.inputs():
            assert looked_up(v) == inst.algorithm(v)

    def test_majority_default_compresses(self):
        inst = gen_thm1(2, seed=3)
        table = tabulate(inst.algorithm)
        assert table.default == inst.default_allocation
        assert len(table.cases) == 1

    def test_refuses_oversized_spaces(self):
        alg = gen_all_ones(3)
        with pytest.raises(Exception):
            tabulate(alg, max_inputs=4)
