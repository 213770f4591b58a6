"""Checkers with teeth: each mutant breaks one piece of a kernel, and
`check_monotone` or a C-bound of the acceptance suite must catch it.

A mutant is the kernel's own source with one piece of text replaced, run in
a copy of the transforms module's namespace and registered as a row of
`TRANSFORMATIONS` for one test. The panels are the acceptance panels
(`standard_panel` at the acceptance seed) plus hand-built sparse tables,
where one to four inputs answer anything and every other input answers
empty: the shape of algorithm the dense random members never take.
"""

import inspect
import textwrap
from fractions import Fraction

import pytest

from dcbox import (
    Allocation,
    CachedRule,
    TransformedRule,
    ValueLadder,
    ValuationVector,
    check_monotone,
    transforms,
    welfare_report,
)
from dcbox.adversaries import stable_rng
from dcbox.blackbox import Algorithm, CaseTable
from dcbox.harness import standard_panel
from dcbox.model import Environment, normalize_antichain

PANEL_SEED = 20260809  # the acceptance suite's
SPARSE_SEEDS = 5  # sparse tables per answering-input count, so 20 per panel


def sparse_table(n, ladder, count, seed):
    """An algorithm whose case table answers `count` seeded inputs with
    seeded nonempty allocations and every other input with the empty one,
    over the downward closure of those allocations."""
    rng = stable_rng("sparse", n, ladder.k, count, seed)
    answers = {}
    while len(answers) < count:
        levels = tuple(rng.randrange(ladder.k) for _ in range(n))
        answers[levels] = Allocation.from_mask(n, rng.randrange(1, 1 << n))
    cases = tuple((ValuationVector(levels), x) for levels, x in answers.items())
    table = CaseTable(n, cases, Allocation.zeros(n))
    env = Environment(n, ladder, normalize_antichain(answers.values(), n))
    return Algorithm(env, table.lookup(), name=f"sparse-{count}-{seed}", table=table)


def panel(n, ladder):
    sparse = [
        sparse_table(n, ladder, count, seed)
        for count in range(1, 5)
        for seed in range(SPARSE_SEEDS)
    ]
    return standard_panel(n, ladder, PANEL_SEED, random_count=20, include_optimal=True) + sparse


def failed_two_checks(kind, n):
    """C1 and C2 over the panels at ratios n, 2n and n^2: the checks that fail."""
    failed = set()
    for ratio in (n, 2 * n, n * n):
        minima = []
        for algorithm in panel(n, ValueLadder.of(1, ratio)):
            rule = CachedRule(TransformedRule(kind, algorithm))
            if not check_monotone(rule, algorithm.env).is_monotone:
                failed.add("C1 monotone")
            report = welfare_report(rule, algorithm, algorithm.env)
            if report.pointwise_min_fraction is not None:
                if report.pointwise_min_fraction < Fraction(1, 2):
                    failed.add("C2 half")
                minima.append(report.pointwise_min_fraction)
        if min(minima) != Fraction(ratio, ratio + n - 1):
            failed.add("C2 floor")
    return failed


def failed_two_plus_checks(kind, n):
    """C4 at ratio n+1 and C5 at ratio 2n+1 over the panels: the checks that fail."""
    failed = set()
    for algorithm in panel(n, ValueLadder.of(1, n + 1)):
        rule = CachedRule(TransformedRule(kind, algorithm))
        if not check_monotone(rule, algorithm.env).is_monotone:
            failed.add("C4 monotone")
        report = welfare_report(rule, algorithm, algorithm.env)
        if Fraction(report.full_welfare_count, report.total_inputs) < Fraction(1, n):
            failed.add("C4 fraction")
        if report.total_inputs - report.full_welfare_count > Fraction(n - 1, n) * 2**n:
            failed.add("C4 losses")
    for algorithm in panel(n, ValueLadder.of(1, 2 * n + 1)):
        report = welfare_report(CachedRule(TransformedRule(kind, algorithm)), algorithm, algorithm.env)
        if report.sum_welfare_rule < report.sum_welfare_original:
            failed.add("C5")
    return failed


FAILED_CHECKS = {"two": failed_two_checks, "two-plus": failed_two_plus_checks}

# mutant id: (kind, kernel, text replaced, replacement, the smallest n whose
# panels catch it, the checks that fail there).
MUTANTS = {
    "two/no-zero-out": (
        "two",
        "t_two",
        "return _restrict(x, high) if x.mask & high else x",
        "return x",
        2,
        {"C1 monotone", "C2 floor"},
    ),
    # Only sparse tables catch it at n=3; the dense members first at n=4.
    "two/no-distance-2": (
        "two",
        "t_two",
        "itertools.chain(_flips(bb.n, 1), _flips(bb.n, 2))",
        "_flips(bb.n, 1)",
        3,
        {"C1 monotone"},
    ),
    # Monotone on every panel tried; only C5 catches it, at n=2 and from n=6 on.
    "two-plus/first-pass-geq": (
        "two-plus",
        "t_two_plus",
        "(candidate.mask & u).bit_count() > hc",
        "(candidate.mask & u).bit_count() >= hc",
        2,
        {"C5"},
    ),
    "two-plus/conflict-inverted": (
        "two-plus",
        "t_two_plus",
        "and not provisional(high | bit).mask & bit",
        "and provisional(high | bit).mask & bit",
        2,
        {"C4 fraction", "C4 losses", "C5"},
    ),
}


def mutated(kernel, old, new):
    """The kernel rebuilt from its source with `old` replaced by `new`."""
    source = textwrap.dedent(inspect.getsource(getattr(transforms, kernel)))
    assert source.count(old) == 1, f"{kernel} no longer holds {old!r} once"
    namespace = dict(vars(transforms))
    exec(source.replace(old, new), namespace)
    return namespace[kernel]


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_mutant_is_caught_on_its_smallest_panel(mutant, monkeypatch):
    kind, kernel, old, new, n, caught = MUTANTS[mutant]
    size = transforms.TRANSFORMATIONS[kind][1]
    monkeypatch.setitem(transforms.TRANSFORMATIONS, mutant, (mutated(kernel, old, new), size))
    failed_checks = FAILED_CHECKS[kind]
    for smaller in range(2, n):
        assert failed_checks(mutant, smaller) == set(), smaller
    assert failed_checks(mutant, n) == caught
    # The checks tell the mutant from the kernel: the kernel passes them all.
    assert failed_checks(kind, n) == set()
