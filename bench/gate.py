"""Correctness gate: theorem checks on result documents, and their digests.

Every workload renders its verdicts in dcbox's result-document format (one
"key value..." line per field, an entry per (algorithm, transformation)
pair starting at its `algorithm` line). The gate reads those documents, not
the program's objects, so it checks what a user of the CLI would read.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Claim:
    """What one entry must satisfy: the paper's bound for its transformation
    on its ladder, and the locality limits it was run under."""

    transformation: str
    ladder: tuple[Fraction, ...]
    radius: int | None = None  # strict: every query at distance < radius
    budget: tuple[int, int] | None = None  # (c, d): c * n^d queries per evaluation


@dataclass
class Entry:
    context: tuple[str, ...]  # the cell lines that precede it in a sweep
    lines: list[str]

    def field(self, key: str) -> str:
        for line in self.lines:
            name, _, value = line.partition(" ")
            if name == key:
                return value
        raise KeyError(f"entry has no {key!r} line")

    def digest(self) -> str:
        """Digest of the entry without timings and query accounting, which
        may change without the verdict changing."""
        kept = [
            line
            for line in (*self.context, *self.lines)
            if not line.startswith(("duration", "queries."))
        ]
        return hashlib.sha256("\n".join(kept).encode()).hexdigest()[:16]


def parse_entries(document: str) -> list[Entry]:
    entries: list[Entry] = []
    context: list[str] = []
    current: Entry | None = None
    for line in document.splitlines():
        key = line.partition(" ")[0]
        if key.startswith("cell."):
            if current is not None:  # first cell line after a cell's entries
                context = []
            context.append(line)
            current = None
        elif key == "algorithm":
            current = Entry(tuple(context), [line])
            entries.append(current)
        elif current is not None and not key.startswith(("summary", "duration")):
            current.lines.append(line)
    return entries


def check_entry(entry: Entry, claim: Claim) -> list[str]:
    """Every reason the entry breaks its claim; empty when it holds."""
    try:
        return _problems(entry, claim)
    except KeyError as exc:  # a failed entry renders no verdict lines
        return [f"{entry.lines[0]}/{claim.transformation}: {exc.args[0]}"]


def _problems(entry: Entry, claim: Claim) -> list[str]:
    name = f"{entry.field('algorithm')}/{claim.transformation}"
    problems = []
    if entry.field("monotone.sampled") != "false" or entry.field("welfare.sampled") != "false":
        problems.append(f"{name}: not exhaustive")
    if int(entry.field("monotone.violations")) != 0:
        problems.append(f"{name}: not monotone")
    n = int(entry.field("n"))
    ladder = claim.ladder
    ratio = ladder[-1] / ladder[0]
    pointwise = entry.field("welfare.pointwise-min")
    pointwise = None if pointwise == "none" else Fraction(pointwise)
    if claim.transformation == "two" and ratio >= n:
        if pointwise is not None and pointwise < Fraction(1, 2):
            problems.append(f"{name}: pointwise {pointwise} < 1/2")
    elif claim.transformation == "two-plus" and ratio > n:
        full = Fraction(int(entry.field("welfare.full-count")), int(entry.field("welfare.total-inputs")))
        if full < Fraction(1, n):
            problems.append(f"{name}: full-welfare fraction {full} < 1/{n}")
        if ratio > 2 * n and Fraction(entry.field("welfare.sum-rule")) < Fraction(
            entry.field("welfare.sum-original")
        ):
            problems.append(f"{name}: total welfare below the original's")
    elif claim.transformation == "multi" and len(ladder) == 3:
        if all(b / a >= n for a, b in zip(ladder, ladder[1:])):
            if pointwise is not None and pointwise < Fraction(1, 3):
                problems.append(f"{name}: pointwise {pointwise} < 1/3")
    if claim.radius is not None and int(entry.field("queries.max-radius")) >= claim.radius:
        problems.append(f"{name}: query radius {entry.field('queries.max-radius')} >= {claim.radius}")
    if claim.budget is not None:
        budget = claim.budget[0] * n ** claim.budget[1]
        if int(entry.field("queries.max-per-eval")) > budget:
            problems.append(f"{name}: {entry.field('queries.max-per-eval')} queries > budget {budget}")
    return problems
