"""Literal reference implementations that the package's kernels are tested
against, and the test parameters several test modules share."""

import operator
from fractions import Fraction

import pytest

from dcbox import DimensionError
from dcbox.transforms import TRANSFORMATIONS


def hamming_distance(u, v) -> int:
    """Number of coordinates where two ValuationVectors differ."""
    if u.n != v.n:
        raise DimensionError(f"hamming distance needs equal lengths, got {u.n} and {v.n}")
    return sum(map(operator.ne, u.levels, v.levels))


def welfare(v, x, ladder) -> Fraction:
    """Welfare of Allocation x at ValuationVector v: the dot product of values and bits."""
    if v.n != x.n:
        raise DimensionError(f"input of length {v.n} vs allocation of length {x.n}")
    vals = ladder.values
    total = Fraction(0)
    for lvl, bit in zip(v.levels, x.bits):
        if bit:
            total += vals[lvl]
    return total


def kind_ladders():
    """(kind, ladder values) for every row of TRANSFORMATIONS: the ladder
    size the row takes, or two and three values for a row that takes any."""
    sizes = {2: (1, 9), 3: (1, 5, 25)}
    for kind, (_, size) in TRANSFORMATIONS.items():
        for values in [sizes[size]] if size else sizes.values():
            yield pytest.param(kind, values, id=f"{kind}-{len(values)}")
