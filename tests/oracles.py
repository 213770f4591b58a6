"""Literal reference implementations that the package's kernels are tested against."""

import operator

from dcbox import DimensionError


def hamming_distance(u, v) -> int:
    """Number of coordinates where two ValuationVectors differ."""
    if u.n != v.n:
        raise DimensionError(f"hamming distance needs equal lengths, got {u.n} and {v.n}")
    return sum(map(operator.ne, u.levels, v.levels))
