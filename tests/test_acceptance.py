"""Acceptance suite: one test per criterion, exact tolerances, printed verdicts.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Each criterion states its own scale; everything asserted here is
an exact rational comparison (no numeric tolerance anywhere).
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from dcbox import (
    Allocation,
    CachedRule,
    InstrumentedBlackBox,
    ParameterError,
    TransformedRule,
    ValueLadder,
    ValuationVector,
    check_monotone,
    gen_all_ones,
    gen_block_adversary,
    gen_hamming_adversary,
    gen_knapsack,
    gen_random_algorithm,
    gen_random_environment,
    gen_thm1,
    is_feasible,
    opt_welfare,
    t_two,
    welfare_report,
)
from dcbox.adversaries import stable_rng
from dcbox.harness import standard_panel
from dcbox.model import Environment, FeasibilitySet, input_index
from oracles import hamming_distance

PANEL_SEED = 20260809


def criterion(cid, description):
    """Print one verdict line per criterion, pass or fail."""

    def decorator(fn):
        def wrapper(*args, **kwargs):
            started = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[{cid}] FAIL {description}")
                raise
            print(f"[{cid}] PASS {description} ({time.monotonic() - started:.1f}s)")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorator


def panel(n, ladder):
    return standard_panel(n, ladder, PANEL_SEED, random_count=20, include_optimal=True)


@criterion("C1", "t_two is monotone: n in 2..10, ratios {n,2n,n^2}, 23-algorithm panel")
def test_c01_two_monotone():
    for n in range(2, 11):
        for ratio in (n, 2 * n, n * n):
            ladder = ValueLadder.of(1, ratio)
            for algorithm in panel(n, ladder):
                rule = CachedRule(TransformedRule("two", algorithm))
                report = check_monotone(rule, algorithm.env)
                assert not report.sampled
                assert report.checked_pairs == n * 2 ** (n - 1)
                assert report.is_monotone, (n, ratio, algorithm.name, report.violations[:3])


@criterion("C2", "t_two keeps half the welfare pointwise when high/low >= n")
def test_c02_two_pointwise_half():
    half = Fraction(1, 2)
    for n in range(2, 11):
        for ratio in (n, 2 * n, n * n):
            ladder = ValueLadder.of(1, ratio)
            for algorithm in panel(n, ladder):
                rule = CachedRule(TransformedRule("two", algorithm))
                report = welfare_report(rule, algorithm, algorithm.env)
                assert not report.sampled
                # inputs with zero original welfare satisfy the bound trivially
                if report.pointwise_min_fraction is not None:
                    assert report.pointwise_min_fraction >= half, (
                        n,
                        ratio,
                        algorithm.name,
                        report.pointwise_min_fraction,
                    )


@criterion("C3", "t_two over all-ones keeps full welfare at exactly 2 inputs")
def test_c03_two_full_welfare_count():
    for n in range(3, 11):
        ladder = ValueLadder.of(1, n * n)
        algorithm = gen_all_ones(n, ladder)
        report = welfare_report(TransformedRule("two", algorithm), algorithm, algorithm.env)
        assert report.full_welfare_count == 2, (n, report.full_welfare_count)
        assert report.total_inputs == 2**n


@criterion("C4", "t_two_plus: monotone, 1/n full-welfare fraction, loss-count bound")
def test_c04_two_plus_bounds():
    for n in range(2, 9):
        ladder = ValueLadder.of(1, n + 1)  # high/low > n
        for algorithm in panel(n, ladder):
            rule = CachedRule(TransformedRule("two-plus", algorithm))
            mono = check_monotone(rule, algorithm.env)
            assert mono.is_monotone, (n, algorithm.name, mono.violations[:3])
            report = welfare_report(rule, algorithm, algorithm.env)
            total = report.total_inputs
            fraction = Fraction(report.full_welfare_count, total)
            assert fraction >= Fraction(1, n), (n, algorithm.name, fraction)
            losses = total - report.full_welfare_count
            assert losses <= Fraction(n - 1, n) * 2**n, (n, algorithm.name, losses)


@criterion("C5", "t_two_plus preserves total welfare when high/low > 2n")
def test_c05_two_plus_expected_welfare():
    for n in range(2, 9):
        ladder = ValueLadder.of(1, 2 * n + 1)
        for algorithm in panel(n, ladder):
            rule = CachedRule(TransformedRule("two-plus", algorithm))
            report = welfare_report(rule, algorithm, algorithm.env)
            assert report.sum_welfare_rule >= report.sum_welfare_original, (
                n,
                algorithm.name,
                report.sum_welfare_rule,
                report.sum_welfare_original,
            )


@criterion("C6", "t_const keeps a low/high fraction of the approximation ratio")
def test_c06_const_ratio_preservation():
    for s in range(50):
        n = 2 + s % 7
        low = Fraction(1 + s % 3, 1 + s % 2)
        high = low * Fraction(3 + s % 5, 2)
        ladder = ValueLadder.of(low, high)
        env = gen_random_environment(n, ladder, 9000 + s)
        algorithm = gen_random_algorithm(env, 9500 + s)
        report = welfare_report(CachedRule(TransformedRule("const", algorithm)), algorithm, env)
        ratio_original = report.approx_ratio_original
        ratio_const = report.approx_ratio_rule
        assert ratio_original is not None and ratio_const is not None
        assert ratio_const >= (low / high) * ratio_original, (
            s,
            ratio_const,
            ratio_original,
        )


@criterion("C7", "threshold adversary: ratio is exactly low/high; t_two degrades to <= 1/m")
def test_c07_hamming_quantities():
    for m in (4, 6, 8):
        for f in (2, 3):
            inst = gen_hamming_adversary(m, f, ValueLadder.of(1, 2))
            transformed = CachedRule(TransformedRule("two", inst.algorithm))
            report = welfare_report(transformed, inst.algorithm, inst.algorithm.env)
            assert report.approx_ratio_original == Fraction(1, 2)
            degraded = report.approx_ratio_rule
            assert degraded <= Fraction(1, m), (m, f, degraded)


@criterion("C8", "t_multi (3 values, adjacent ratios n): monotone, 1/3 pointwise")
def test_c08_multi_three_values():
    third = Fraction(1, 3)
    for n in range(2, 8):
        ladder = ValueLadder.of(1, n, n * n)
        for algorithm in panel(n, ladder):
            rule = CachedRule(TransformedRule("multi", algorithm))
            mono = check_monotone(rule, algorithm.env)
            assert mono.is_monotone, (n, algorithm.name, mono.violations[:3])
            report = welfare_report(rule, algorithm, algorithm.env)
            assert not report.sampled
            if report.pointwise_min_fraction is not None:
                assert report.pointwise_min_fraction >= third, (
                    n,
                    algorithm.name,
                    report.pointwise_min_fraction,
                )


def _assert_outputs_feasible(algorithm, sample_seed):
    env = algorithm.env
    if env.input_count() <= 10**4:
        inputs = list(env.inputs())
    else:
        rng = stable_rng("feasibility-sample", sample_seed)
        inputs = [
            ValuationVector(tuple(rng.randrange(env.k) for _ in range(env.n)))
            for _ in range(1000)
        ]
    for v in inputs:
        assert is_feasible(algorithm(v), env.feasibility), (algorithm.name, v.levels)


@criterion("C9", "generator well-formedness: shapes, permutation support, chains, feasibility")
def test_c09_adversary_well_formedness():
    with pytest.raises(ParameterError):
        gen_thm1(3, seed=0)
    for m in (2, 4):
        inst = gen_thm1(m, seed=101 + m)
        n = 4 * m
        assert inst.special_input_pre.levels == (1,) * (3 * m) + (0,) * m
        c = inst.special_allocation_pre.bits
        assert sum(c[: 2 * m]) == m + 1
        assert sum(c[2 * m : 3 * m]) == 0 and c[3 * m :] == (1,) * m
        assert inst.default_allocation_pre.bits == (0,) * (2 * m) + (1,) * (2 * m)
        expected_fakes = len(list(itertools.combinations(range(2 * m), m // 2 - 1)))
        assert len(inst.fakes_pre) == expected_fakes
        for fake in inst.fakes_pre:
            assert sum(fake.bits[: 2 * m]) == m // 2 - 1
            assert sum(fake.bits[2 * m : 3 * m]) == 0
            assert fake.bits[3 * m :] == (1,) * m
        cut = n - 3 * m // 2
        assert inst.permutation[:cut] == tuple(range(cut))
        assert sorted(inst.permutation[cut:]) == list(range(cut, n))
        specials = [
            v
            for v in inst.algorithm.env.inputs()
            if inst.algorithm(v) == inst.special_allocation
        ]
        assert specials == [inst.special_input]
        for fake in inst.fakes:
            assert is_feasible(fake, inst.algorithm.env.feasibility)
        _assert_outputs_feasible(inst.algorithm, sample_seed=m)

    for L1, L2, L3, ones in ((8, 4, 1, 2), (10, 5, 1, 4), (16, 8, 2, 5)):
        inst = gen_block_adversary(L1, L2, L3, ones, seed=7)
        assert len(inst.chain) == ones
        for i, b in enumerate(inst.chain, start=1):
            assert hamming_distance(inst.chain[0], b) == i - 1
        _assert_outputs_feasible(inst.algorithm, sample_seed=L1)

    for m, f in ((4, 2), (6, 3), (8, 3)):
        inst = gen_hamming_adversary(m, f)
        _assert_outputs_feasible(inst.algorithm, sample_seed=m + f)

    ladder = ValueLadder.of(1, 5)
    _assert_outputs_feasible(gen_all_ones(6, ladder), sample_seed=1)
    _assert_outputs_feasible(gen_knapsack([2, 1, 3, 2, 1], 5, ladder=ladder), sample_seed=2)
    for seed in range(5):
        env = gen_random_environment(7, ladder, 600 + seed)
        _assert_outputs_feasible(gen_random_algorithm(env, 700 + seed), sample_seed=seed)


# Independent oracles for criterion 10, written against raw bit tuples.
def brute_force_opt(v, feasibility, ladder):
    values = [ladder.values[lvl] for lvl in v.levels]
    maximal = [m.bits for m in feasibility.maximal]
    best = Fraction(0)
    for candidate in itertools.product((0, 1), repeat=v.n):
        if not any(all(c <= m for c, m in zip(candidate, mx)) for mx in maximal):
            continue
        best = max(best, sum((x for x, b in zip(values, candidate) if b), Fraction(0)))
    return best


def naive_monotonicity_violations(rule, n, k):
    found = []
    for base in itertools.product(range(k), repeat=n):
        x = rule(ValuationVector(base))
        for i in range(n):
            for hi in range(base[i] + 1, k):
                y = rule(ValuationVector(base[:i] + (hi,) + base[i + 1 :]))
                if x.bits[i] == 1 and y.bits[i] == 0:
                    found.append((base, i, base[i], hi))
    return sorted(found)


@criterion("C10", "oracle equivalence: optimum, monotonicity checker, query locality")
def test_c10_oracle_equivalences():
    # optimal welfare vs brute force over the whole downward closure, n <= 12
    rng = random.Random(31337)
    ladder = ValueLadder.of(1, 12)
    for trial in range(8):
        n = rng.choice([4, 6, 9, 12])
        count = rng.randint(1, 6)
        allocs = [Allocation(tuple(rng.randint(0, 1) for _ in range(n))) for _ in range(count)]
        feasibility = FeasibilitySet(
            n, frozenset(a for a in allocs if not any(a != b and a.dominated_by(b) for b in allocs))
        )
        for _ in range(6):
            v = ValuationVector(tuple(rng.randint(0, 1) for _ in range(n)))
            assert opt_welfare(v, feasibility, ladder) == brute_force_opt(v, feasibility, ladder)

    # monotonicity checker vs the naive double loop, k^n <= 10^4
    for n, k, seed in ((10, 2, 1), (13, 2, 2), (8, 3, 3)):
        table_rng = stable_rng("oracle-rule", n, k, seed)
        table = {
            levels: Allocation(tuple(table_rng.randint(0, 1) for _ in range(n)))
            for levels in itertools.product(range(k), repeat=n)
        }
        rule = lambda v: table[v.levels]
        env = Environment(
            n,
            ValueLadder.of(*range(1, k + 1)),
            FeasibilitySet(n, frozenset({Allocation((1,) * n)})),
        )
        report = check_monotone(rule, env)
        assert not report.sampled
        got = [(v.input.levels, v.agent, v.level_low, v.level_high) for v in report.violations]
        assert got == naive_monotonicity_violations(rule, n, k)

    # t_two's query log never leaves Hamming radius 2 (and therefore also
    # runs to completion under a strict radius-3 restriction)
    ladder = ValueLadder.of(1, 6)
    for seed in range(5):
        env = gen_random_environment(6, ladder, 4200 + seed)
        algorithm = gen_random_algorithm(env, 4300 + seed)
        for v in env.inputs():
            bb = InstrumentedBlackBox(
                algorithm, hamming_center=input_index(v.levels, 2), hamming_radius=3
            )
            t_two(bb, v)
            assert bb.max_radius <= 2
