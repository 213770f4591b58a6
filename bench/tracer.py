"""Span recorder that wraps dcbox's public boundaries from outside.

`install` replaces each boundary (the algorithm rule, the black-box query,
the transformed rule, neighbour enumeration, welfare scans, the memo, the
verification passes, the harness commands, the document readers and
writers, and the CLI entry point) with a wrapper that records a span, in
every dcbox module that holds the name. `uninstall` restores the originals.
The program's source is not changed.

A span has a name, a start, an end and a parent. Boundaries entered once
per entry or per command ("kept" spans) are stored one record each.
Boundaries entered per input or per query happen millions of times in a
pass, so they are stored as totals per (name, parent name): count, total
time and self time. Self time is a span's duration minus the time its
child spans cover. The first part of a name is the dcbox module, which is
the layer the time is charged to.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time

perf = time.perf_counter

# Names that keep one record per span; every other boundary is aggregated.
KEPT = {
    "cli.main",
    "harness.cmd_verify",
    "harness.cmd_regime_sweep",
    "harness.cmd_adversary",
    "harness.sweep_cell",
    "harness.standard_panel",
    "harness.load_config",
    "verify.check_monotone",
    "verify.welfare_report",
    "serialize.load_adversary",
    "serialize.dump_adversary",
    "blackbox.tabulate",
}

_ALGORITHM_GENERATORS = ("gen_all_ones", "gen_knapsack", "gen_random_algorithm")
_INSTANCE_GENERATORS = ("gen_thm1", "gen_hamming_adversary", "gen_block_adversary")


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [name, child time, kept span id]
        self._patches: list[tuple[object, str, object]] = []
        self._next_algorithm = 0
        self._next_span = 0
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (call between passes)."""
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.totals: dict[tuple[str, str | None], list] = {}
        self.neighbours = 0
        self.queries = 0
        self.cache_hits = 0
        self.checked_pairs = 0
        self.max_queries = 0
        self.max_radius = 0
        self.doc_bytes = 0
        self.algorithm_inputs: set[tuple[int, tuple[int, ...]]] = set()

    # -- recording -----------------------------------------------------------

    def _close(self, name: str, start: float, end: float, frame: list, parent) -> None:
        duration = end - start
        if parent is not None:
            parent[1] += duration
        key = (name, parent[0] if parent is not None else None)
        total = self.totals.get(key)
        if total is None:
            total = self.totals[key] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame[1]
        if name in KEPT:
            self.spans.append((frame[2], name, start, end, parent[2] if parent else None))

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; `after(result, args)` updates counters."""
        stack = self.stack
        kept = name in KEPT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if kept:
                self._next_span += 1
                span_id = self._next_span
            else:
                span_id = parent[2] if parent is not None else None
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                self._close(name, start, end, frame, parent)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def self_time(self, prefix: str) -> float:
        return sum(t[2] for (name, _), t in self.totals.items() if name.startswith(prefix))

    def total_time(self, prefix: str) -> float:
        """Inclusive time of spans under `prefix` whose parent is outside it."""
        return sum(
            t[1]
            for (name, parent), t in self.totals.items()
            if name.startswith(prefix) and not (parent or "").startswith(prefix)
        )

    def count(self, prefix: str) -> int:
        return sum(t[0] for (name, _), t in self.totals.items() if name.startswith(prefix))

    def kept_durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _ in self.spans if n == name]

    # -- instrumentation -----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, original, replacement) -> None:
        """Replace a function in every loaded dcbox module that imported it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "dcbox" or module_name.startswith("dcbox.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def _traced_rule(self, rule):
        index = self._next_algorithm
        self._next_algorithm += 1
        traced = self.span("adversaries.algorithm", rule)

        def counted(v):
            self.algorithm_inputs.add((index, v.levels))
            return traced(v)

        return counted

    def _traced_generator(self, name: str, generate):
        """A generator whose algorithm's rule is traced; building is a span."""
        timed = self.span(f"adversaries.{name}", generate)

        @functools.wraps(generate)
        def wrapper(*args, **kwargs):
            built = timed(*args, **kwargs)
            if name in _INSTANCE_GENERATORS:
                algorithm = built.algorithm
                traced = dataclasses.replace(algorithm, rule=self._traced_rule(algorithm.rule))
                return dataclasses.replace(built, algorithm=traced)
            return dataclasses.replace(built, rule=self._traced_rule(built.rule))

        return wrapper

    def install(self) -> None:
        """Wrap every boundary; idempotent until `uninstall`."""
        if self._patches:
            return
        from dcbox import adversaries, blackbox, cli, harness, model, serialize, transforms, verify

        for name in _ALGORITHM_GENERATORS + _INSTANCE_GENERATORS:
            original = getattr(adversaries, name)
            self._patch_everywhere(original, self._traced_generator(name, original))
        lookup = blackbox.CaseTable.lookup
        self._patch(
            blackbox.CaseTable,
            "lookup",
            functools.wraps(lookup)(lambda table: self._traced_rule(lookup(table))),
        )
        self._patch_everywhere(blackbox.tabulate, self.span("blackbox.tabulate", blackbox.tabulate))

        def count_query(result, args):
            self.queries += 1

        self._patch(
            blackbox.InstrumentedBlackBox,
            "query",
            self.span("blackbox.query", blackbox.InstrumentedBlackBox.query, count_query),
        )

        def note_evaluation(result, args):
            rule = args[0]
            if rule.max_queries > self.max_queries:
                self.max_queries = rule.max_queries
            if rule.max_radius > self.max_radius:
                self.max_radius = rule.max_radius

        self._patch(
            transforms.TransformedRule,
            "__call__",
            self.span("transforms.rule", transforms.TransformedRule.__call__, note_evaluation),
        )
        self._patch_everywhere(
            transforms.inputs_at_distance, self._traced_neighbours(transforms.inputs_at_distance)
        )
        self._patch(model.ScaledWelfare, "of", self.span("model.welfare", model.ScaledWelfare.of))

        cached_call = verify.CachedRule.__call__
        traced_cached = self.span("verify.cached_rule", cached_call)

        def cached_rule(memo, v):
            if v.levels in memo.cache:
                self.cache_hits += 1
            return traced_cached(memo, v)

        self._patch(verify.CachedRule, "__call__", functools.wraps(cached_call)(cached_rule))

        def count_pairs(report, args):
            self.checked_pairs += report.checked_pairs

        self._patch_everywhere(
            verify.check_monotone,
            self.span("verify.check_monotone", verify.check_monotone, count_pairs),
        )
        self._patch_everywhere(
            verify.welfare_report, self.span("verify.welfare_report", verify.welfare_report)
        )

        for name in ("cmd_verify", "cmd_regime_sweep", "cmd_adversary", "standard_panel", "load_config"):
            original = getattr(harness, name)
            self._patch_everywhere(original, self.span(f"harness.{name}", original))
        self._patch(harness, "_sweep_cell", self.span("harness.sweep_cell", harness._sweep_cell))

        def count_bytes(result, args):
            self.doc_bytes += len(args[0])

        for name in ("load_adversary", "load_environment"):
            original = getattr(serialize, name)
            self._patch_everywhere(original, self.span(f"serialize.{name}", original, count_bytes))
        for name in ("dump_adversary", "dump_environment"):
            original = getattr(serialize, name)
            self._patch_everywhere(original, self.span(f"serialize.{name}", original))
        self._patch(cli, "main", self.span("cli.main", cli.main))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _traced_neighbours(self, generate):
        """Neighbour enumeration: each step of the generator is timed as a
        span of the caller's frame, and every yielded input is counted."""
        stack = self.stack

        @functools.wraps(generate)
        def wrapper(v, distance, k):
            inner = generate(v, distance, k)
            while True:
                parent = stack[-1] if stack else None
                frame = ["transforms.inputs_at_distance", 0.0, None]
                start = perf()
                try:
                    u = next(inner)
                except StopIteration:
                    self._close(frame[0], start, perf(), frame, parent)
                    return
                self._close(frame[0], start, perf(), frame, parent)
                self.neighbours += 1
                yield u

        return wrapper
