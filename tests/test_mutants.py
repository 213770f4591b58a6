"""Checkers with teeth: each mutant breaks one piece of a kernel, and
a row of its kind in tests/claims.py, the acceptance suite's bounds, must
catch it. Its kind's literal spec must tell it from the kernel too.

A mutant is the kernel's own source with one piece of text replaced, run in
a copy of the transforms module's namespace and registered as a row of
`TRANSFORMATIONS` for one test. The panels are the acceptance panels plus
hand-built sparse tables (`claims.panel` with `sparse`)."""

import inspect
import textwrap

import pytest

from dcbox import transforms
import claims
from oracles import LITERAL_TWO_VALUE_SPECS, first_departure, two_value_tables

# mutant id: (kind, kernel, text replaced, replacement, the smallest n whose
# panels catch it, the ids of the claim rows that fail there).
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
    for smaller in range(2, n):
        assert claims.failed(kind, smaller, mutant, sparse=True) == set(), smaller
    assert claims.failed(kind, n, mutant, sparse=True) == caught
    # The rows tell the mutant from the kernel: the kernel passes them all.
    assert claims.failed(kind, n, sparse=True) == set()


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
