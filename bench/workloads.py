"""The four benchmark workloads.

Each workload makes its inputs from the benchmark seed in `setup`, and
`run_pass` runs them once through dcbox's public API or CLI, returning the
result documents and per-entry times. The program receives only the
generated inputs (panels, config documents, adversary documents).

`toy` selects tiny sizes for the smoke test; the timed sizes are the
defaults.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from gate import Claim, check_entry, parse_entries

perf = time.perf_counter

# standard_panel(seed) draws its random algorithms from seeds seed+1000..
# and seed+2000.., so panel seeds one apart share all but one algorithm.
# Seeds given to the program are this far apart, so that the panels of one
# run, and of runs with neighbouring benchmark seeds, are distinct.
SEED_STRIDE = 10_000


@dataclass
class PassResult:
    wall: float
    entry_s: list[float]
    documents: list[str]
    claims: list[Claim]  # one per entry, in document order
    cell_s: list[float] = field(default_factory=list)  # sweep cells, as the program timed them

    def verdicts(self) -> tuple[int, list[str], list[str], int]:
        """(entries expected, one problem list per entry, entry digests,
        inputs checked by the entries that passed). A missing entry is a
        problem list of its own."""
        entries = [e for document in self.documents for e in parse_entries(document)]
        problems = [check_entry(entry, claim) for entry, claim in zip(entries, self.claims)]
        missing = abs(len(self.claims) - len(entries))
        problems += [[f"{len(entries)} entries rendered, {len(self.claims)} expected"]] * missing
        inputs = sum(
            int(entry.field("welfare.total-inputs"))
            for entry, found in zip(entries, problems)
            if not found
        )
        return len(self.claims), problems, [e.digest() for e in entries], inputs


def _ladder(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in text.split())


class PanelWorkload:
    """One transformation over acceptance panels (all-ones, both knapsack
    policies, `random_count` random algorithms), checked with check_monotone
    and welfare_report through the library API.

    A pass verifies `panels` panels, and each pass of a run takes new ones,
    drawn from the benchmark seed and the pass's index. The cost of a panel,
    and above all of its slowest entries, varies with its random
    algorithms, so a run pools many panels rather than repeating a few.
    """

    def __init__(self, transformation: str, n: int, ladder: str, random_count: int, panels: int):
        self.transformation = transformation
        self.n = n
        self.ladder = _ladder(ladder)
        self.random_count = random_count
        self.panels = panels

    def setup(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.passes = 0
        self.algorithms = self._algorithms(0)

    def _algorithms(self, index: int) -> list:
        from dcbox import ValueLadder
        from dcbox.harness import standard_panel

        first = (self.seed * 1000 + index) * self.panels  # far fewer than 1000 passes a run
        return [
            algorithm
            for panel in range(first, first + self.panels)
            for algorithm in standard_panel(
                self.n,
                ValueLadder(self.ladder),
                SEED_STRIDE * panel,
                random_count=self.random_count,
                include_optimal=True,
            )
        ]

    def first_evaluation(self) -> None:
        from dcbox import TransformedRule, ValuationVector

        TransformedRule(self.transformation, self.algorithms[0])(ValuationVector((0,) * self.n))

    def run_pass(self, in_process: bool) -> PassResult:
        from dcbox import CachedRule, TransformedRule, check_monotone, welfare_report
        from dcbox.harness import VerifyEntry

        if self.passes:
            self.algorithms = self._algorithms(self.passes)
        self.passes += 1
        entries, entry_s = [], []
        start = perf()
        for algorithm in self.algorithms:
            began = perf()
            transformed = TransformedRule(self.transformation, algorithm)
            rule = CachedRule(transformed)
            monotone = check_monotone(rule, algorithm.env)
            welfare = welfare_report(rule, algorithm, algorithm.env)
            entry_s.append(perf() - began)
            entries.append(
                VerifyEntry(
                    algorithm.name,
                    algorithm.env.n,
                    algorithm.env.k,
                    monotone,
                    welfare,
                    transformed.max_queries,
                    transformed.max_radius,
                )
            )
        wall = perf() - start
        document = "\n".join(line for entry in entries for line in entry.lines()) + "\n"
        claim = Claim(self.transformation, self.ladder)
        return PassResult(wall, entry_s, [document], [claim] * len(entries))


# Sweep ratio tokens, evaluated here rather than by the program under test.
_RATIOS = {"n+1": lambda n: n + 1, "2n+1": lambda n: 2 * n + 1}


class SweepWorkload:
    """`dcbox sweep` through the CLI entry point, fanned out to workers."""

    def __init__(self, sizes: tuple[int, ...], random_count: int, workers: int):
        self.sizes = sizes
        self.random_count = random_count
        self.workers = workers

    def setup(self, seed: int, out_dir: Path) -> None:
        import dcbox.cli  # noqa: F401  (the CLI is the entry point this workload times)

        self.config = out_dir / "sweep.cfg"
        self.config.write_text(
            "dcbox-config 1\n"
            "transformation two-plus\n"
            f"sweep-n {' '.join(map(str, self.sizes))}\n"
            f"sweep-ratio {' '.join(_RATIOS)}\n"
            f"panel-random {self.random_count}\n"
            f"seed {SEED_STRIDE * seed}\n",
            encoding="utf-8",
        )

    def first_evaluation(self) -> None:
        from dcbox import TransformedRule, ValuationVector
        from dcbox.harness import ladder_for_ratio, load_config, standard_panel

        config = load_config(self.config)
        n = config.sweep_n[0]
        ladder = ladder_for_ratio(config.sweep_ratios[0], n)
        panel = standard_panel(n, ladder, config.seed, random_count=config.panel_random)
        TransformedRule("two-plus", panel[0])(ValuationVector((0,) * n))

    def run_pass(self, in_process: bool) -> PassResult:
        """With `in_process` the cells run in this process (1 worker), so that
        the tracer sees them; otherwise on `workers` worker processes."""
        from dcbox import cli, harness

        records = []
        verify_entry, sweep = harness._verify_entry, cli.cmd_regime_sweep

        # Entry times are taken inside the workers and travel back with the
        # records; the records are kept from the CLI's call of the sweep.
        def timed_entry(*args):
            began = perf()
            entry = verify_entry(*args)
            entry.bench_seconds = perf() - began
            return entry

        def kept_sweep(config):
            result = sweep(config)
            records.extend(result[0])
            return result

        harness._verify_entry, cli.cmd_regime_sweep = timed_entry, kept_sweep
        argv = ["sweep", "--config", str(self.config), "--workers", "1" if in_process else str(self.workers)]
        out = io.StringIO()
        try:
            start = perf()
            with contextlib.redirect_stdout(out):
                status = cli.main(argv)
            wall = perf() - start
        finally:
            harness._verify_entry, cli.cmd_regime_sweep = verify_entry, sweep
        if status != 0:
            raise RuntimeError(f"dcbox sweep exited with {status}")
        entry_s = [entry.bench_seconds for record in records for entry in record.entries]
        claims = [
            Claim("two-plus", (Fraction(1), Fraction(ratio(n))))
            for n in self.sizes
            for ratio in _RATIOS.values()
            for _ in range(2 + self.random_count)  # all-ones, knapsack-greedy, random
        ]
        cell_s = [record.duration_ms / 1000 for record in records]
        return PassResult(wall, entry_s, [out.getvalue()], claims, cell_s)


class LocalityWorkload:
    """Adversary documents written with cmd_adversary, then verified one by
    one with cmd_verify under a Hamming radius and a query budget, which
    gives every evaluation fresh state."""

    # Limits per transformation: (radius, (c, d)) for a budget of c * n^d.
    # t_two queries within distance 2, t_two_plus and t_multi within 5.
    LIMITS = {"two": (3, (1, 2)), "two-plus": (6, (1, 3)), "multi": (6, (1, 4))}

    def __init__(self, documents, runs):
        self.documents = documents  # (name, generator, params, ladder, seed offset)
        self.runs = runs  # (document name, transformation)

    def setup(self, seed: int, out_dir: Path) -> None:
        from dcbox import ValueLadder
        from dcbox.harness import ExperimentConfig, cmd_adversary

        self.seed = seed
        self.paths = {}
        for name, generator, params, ladder, offset in self.documents:
            path = out_dir / f"{name}.txt"
            cmd_adversary(
                ExperimentConfig(
                    generator=generator,
                    params=params,
                    ladder=ValueLadder(_ladder(ladder)),
                    seed=SEED_STRIDE * seed + offset,
                    output=str(path),
                )
            )
            self.paths[name] = path

    def _claim(self, document: str, transformation: str) -> Claim:
        radius, budget = self.LIMITS[transformation]
        ladder = next(spec[3] for spec in self.documents if spec[0] == document)
        return Claim(transformation, _ladder(ladder), radius, budget)

    def first_evaluation(self) -> None:
        from dcbox import TransformedRule, ValuationVector
        from dcbox.serialize import load_adversary

        document, transformation = self.runs[0]
        path = self.paths[document]
        algorithm = load_adversary(path.read_text(encoding="utf-8"), str(path)).build_algorithm()
        claim = self._claim(document, transformation)
        c, d = claim.budget
        rule = TransformedRule(
            transformation,
            algorithm,
            query_budget=c * algorithm.env.n**d,
            hamming_radius=claim.radius,
            shared_state=False,
        )
        rule(ValuationVector((0,) * algorithm.env.n))

    def run_pass(self, in_process: bool) -> PassResult:
        from dcbox import DcboxError
        from dcbox.harness import ExperimentConfig, cmd_verify

        documents, entry_s, claims = [], [], []
        start = perf()
        for document, transformation in self.runs:
            claim = self._claim(document, transformation)
            config = ExperimentConfig(
                transformation=transformation,
                algorithm_path=str(self.paths[document]),
                seed=self.seed,
                query_budget=claim.budget,
                hamming_radius=claim.radius,
            )
            began = perf()
            try:
                record = cmd_verify(config)
            except DcboxError as exc:  # a radius or budget violation fails the entry
                documents.append(f"algorithm {document}\nerror {type(exc).__name__}: {exc}\n")
            else:
                documents.append(record.to_document())
            entry_s.append(perf() - began)
            claims.append(claim)
        wall = perf() - start
        return PassResult(wall, entry_s, documents, claims)


def make(name: str, toy: bool = False):
    """The workload called `name`, at timed or toy size."""
    if name == "panel-two":
        return PanelWorkload("two", 4 if toy else 10, "1 100", 2 if toy else 20, panels=3)
    if name == "panel-multi":
        return PanelWorkload("multi", 3 if toy else 6, "1 6 36", 2 if toy else 20, panels=3)
    if name == "sweep-two-plus":
        sizes = (3, 4) if toy else (4, 6, 8, 10)
        return SweepWorkload(sizes, 2 if toy else 20, workers=2)
    if name == "locality-docs":
        # Three random documents of each kind: the cost of verifying one
        # random algorithm with fresh state varies several-fold with its seed.
        m, n_two, n_three = (2, 4, 3) if toy else (6, 12, 6)
        documents = (
            ("hamming", "hamming", (("m", str(m)), ("f", str(m // 2))), "1 2", 0),
            ("thm1", "thm1", (("m", "2" if toy else "4"),), "1 2", 0),
            *((f"random-two-{j}", "random", (("n", str(n_two)),), f"1 {n_two + 1}", j) for j in range(3)),
            *((f"random-three-{j}", "random", (("n", str(n_three)),), f"1 {n_three} {n_three**2}", j) for j in range(3)),
        )
        runs = (
            ("hamming", "two"),
            ("hamming", "two-plus"),
            ("thm1", "two"),
            *((f"random-two-{j}", t) for j in range(3) for t in ("two", "two-plus")),
            *((f"random-three-{j}", "multi") for j in range(3)),
        )
        return LocalityWorkload(documents, runs)
    raise KeyError(name)


NAMES = ("panel-two", "panel-multi", "sweep-two-plus", "locality-docs")


def out_dir(workload: str, seed: int, toy: bool) -> Path:
    """Where a workload writes its documents: inside the checkout, fixed per
    (workload, seed) so that the paths echoed in result documents repeat."""
    path = Path(".bench_out") / f"{workload}{'-toy' if toy else ''}" / f"seed{seed}"
    os.makedirs(path, exist_ok=True)
    return path
