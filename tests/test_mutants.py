"""Checkers with teeth: each mutant breaks one piece of a kernel, and
`check_monotone` or a C-bound of the acceptance suite must catch it. Its
kind's literal spec must tell it from the kernel too.

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
    CachedRule,
    TransformedRule,
    ValueLadder,
    check_monotone,
    transforms,
    welfare_report,
)
from dcbox.harness import standard_panel
from oracles import LITERAL_TWO_VALUE_SPECS, first_departure, sparse_table, two_value_tables

PANEL_SEED = 20260809  # the acceptance suite's
SPARSE_SEEDS = 5  # sparse tables per answering-input count, so 20 per panel


def panel(n, ladder):
    sparse = [
        sparse_table(n, ladder, count, seed)
        for count in range(1, 5)
        for seed in range(SPARSE_SEEDS)
    ]
    return standard_panel(n, ladder, PANEL_SEED, random_count=20, include_optimal=True) + sparse


def failed_two_checks(kind, n):
    """C1, C2 and `two`'s query radius of 2 over the panels at ratios n, 2n
    and n^2: the checks that fail."""
    failed = set()
    for ratio in (n, 2 * n, n * n):
        minima = []
        for algorithm in panel(n, ValueLadder.of(1, ratio)):
            transformed = TransformedRule(kind, algorithm)
            rule = CachedRule(transformed)
            if not check_monotone(rule, algorithm.env).is_monotone:
                failed.add("C1 monotone")
            if transformed.max_radius > 2:
                failed.add("radius 2")
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
    # A scan at distance 3 after distances 1 and 2: monotone and within both
    # C2 bounds at every n from 2 to 6. Only its radius, 3 from n=3 on, tells.
    "two/radius-3": (
        "two",
        "t_two",
        "itertools.chain(_flips(bb.n, 1), _flips(bb.n, 2))",
        "itertools.chain(_flips(bb.n, 1), _flips(bb.n, 2), _flips(bb.n, 3))",
        3,
        {"radius 2"},
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


def register(mutant, monkeypatch):
    """Register the mutant as a row of TRANSFORMATIONS for one test; its kind."""
    kind, kernel, old, new, _, _ = MUTANTS[mutant]
    size = transforms.TRANSFORMATIONS[kind][1]
    monkeypatch.setitem(transforms.TRANSFORMATIONS, mutant, (mutated(kernel, old, new), size))
    return kind


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_mutant_is_caught_on_its_smallest_panel(mutant, monkeypatch):
    kind = register(mutant, monkeypatch)
    n, caught = MUTANTS[mutant][4:]
    failed_checks = FAILED_CHECKS[kind]
    for smaller in range(2, n):
        assert failed_checks(mutant, smaller) == set(), smaller
    assert failed_checks(mutant, n) == caught
    # The checks tell the mutant from the kernel: the kernel passes them all.
    assert failed_checks(kind, n) == set()


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_mutant_departs_from_its_literal_spec(mutant, monkeypatch):
    # The kind's literal spec (tests/oracles.py) tells every mutant from the
    # kernel on the tables the kernel matches it on: four of them on an n=2
    # table, `two/radius-3` first on an n=3 sparse table with one answering
    # input. That covers `two/radius-3` and `two-plus/first-pass-geq`, which
    # only one check of their panels catches.
    kind = register(mutant, monkeypatch)
    spec = LITERAL_TWO_VALUE_SPECS[kind]
    departures = (first_departure(mutant, alg, spec) for alg in two_value_tables())
    assert any(levels is not None for levels in departures)
