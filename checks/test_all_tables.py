"""Every answer table at n = 2 on three values through `multi`, against the
literal oracle.

A table answers one of the four allocations of two agents at each of the
nine inputs, so there are 4**9 = 262 144 of them, and each is an algorithm
(the kernels read feasibility only under `check_feasible`). At every input
of every table, `TransformedRule("multi")` must answer as
`oracles.literal_multi3`. At n = 2 no input lies at distance 3 or more, so
the kernel's last three steps are skipped on every table.

This check takes minutes, so it lives outside tier-1's `testpaths`. Run it
from the repository root:

    PYTHONPATH=src python -m pytest -q checks/test_all_tables.py
"""

import itertools
import sys
from pathlib import Path

from dcbox import Allocation, Environment, FeasibilitySet, TransformedRule, ValueLadder
from dcbox.blackbox import Algorithm

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import literal_multi3  # noqa: E402

N, K = 2, 3


def test_multi_matches_the_oracle_on_every_table():
    full = Allocation.from_mask(N, (1 << N) - 1)
    env = Environment(N, ValueLadder.of(1, 2, 4), FeasibilitySet(N, frozenset({full})))
    allocations = [Allocation.from_mask(N, mask) for mask in range(1 << N)]
    inputs = list(env.inputs())
    tables = mismatches = 0
    first = []
    for answers in itertools.product(allocations, repeat=K**N):
        # Agent 0's level is the low digit of the input index.
        algorithm = Algorithm(env, lambda v, a=answers: a[v.levels[0] + K * v.levels[1]])
        rule = TransformedRule("multi", algorithm)
        for v in inputs:
            got, expected = rule(v), literal_multi3(algorithm, v)
            if got != expected:
                mismatches += 1
                if len(first) < 5:
                    table = " ".join(x.to_string() for x in answers)
                    first.append(f"table {table} at {v.levels}: {got} != {expected}")
        tables += 1
    assert tables == 4 ** (K**N) == 262_144
    assert mismatches == 0, f"{mismatches} mismatches, first: {first}"
