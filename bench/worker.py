"""One workload process: set up, then probe or measure, and print one JSON line.

    python3 bench/worker.py --workload NAME --seed N --probe
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; dcbox is imported from `src/`. `--probe`
stops after the first rule evaluation and reports when that happened, on
the system-wide monotonic clock, so that the parent can time set-up from
interpreter start. Otherwise passes repeat until S seconds have gone, and
every pass's verdicts are checked. With `--trace 1` an untraced pass comes
first, then the tracer is installed and the passes are traced.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

perf = time.perf_counter
LAYERS = ("adversaries", "blackbox", "transforms", "model", "verify", "harness", "serialize", "cli")


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--toy", action="store_true")
    return parser.parse_args(argv)


def _checked(result, references, index=0):
    """Theorem checks on every entry, and the digests of the index-th pass
    where the reference has them."""
    attempted, problems, digests, inputs = result.verdicts()
    reference = references[index] if index < len(references) else None
    if reference is not None:
        for entry, found in enumerate(problems):
            if not found and (entry >= len(reference) or digests[entry] != reference[entry]):
                found.append(f"entry {entry}: result differs from the reference")
        if len(digests) != len(reference):
            problems.append([f"{len(digests)} digests, {len(reference)} in the reference"])
    failed = [p for p in problems if p]
    return {
        "wall": result.wall,
        "entry_s": result.entry_s,
        "attempted": attempted,
        "failed": len(failed),
        "problems": [line for found in failed[:5] for line in found],
        "inputs": inputs,
    }


# Units of the per-layer metrics; names ending in _s are seconds.
LAYER_UNITS = {
    "adversaries.calls_per_input": "ratio",
    "blackbox.queries_per_eval": "ratio",
    "verify.cache_hit_ratio": "ratio",
    "harness.cell_s_max": "s",
    "harness.cell_s_sum": "s",
    "harness.parallel_efficiency": "ratio",
    "serialize.doc_bytes": "bytes",
}


def unit(name: str) -> str:
    return LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count")


def layer_metrics(tracer, cells) -> dict:
    """Per-layer metrics of one traced pass."""
    evals = tracer.count("transforms.rule")
    calls = tracer.count("adversaries.algorithm")
    rule_calls = tracer.count("verify.cached_rule")
    pairs = len(tracer.algorithm_inputs)
    return {
        "adversaries.algo_calls": calls,
        "adversaries.algo_s": tracer.self_time("adversaries.algorithm"),
        "adversaries.calls_per_input": calls / pairs if pairs else 0.0,
        "adversaries.build_s": tracer.total_time("adversaries.gen_"),
        "blackbox.queries": tracer.queries,
        "blackbox.self_s": tracer.self_time("blackbox.query"),
        "blackbox.queries_per_eval": tracer.queries / evals if evals else 0.0,
        "blackbox.max_queries_per_eval": tracer.max_queries,
        "blackbox.max_radius": tracer.max_radius,
        "transforms.evals": evals,
        "transforms.self_s": tracer.self_time("transforms."),
        "transforms.neighbours": tracer.neighbours,
        "model.welfare_scans": tracer.count("model.welfare"),
        "model.welfare_s": tracer.self_time("model.welfare"),
        "verify.rule_calls": rule_calls,
        "verify.cache_hit_ratio": tracer.cache_hits / rule_calls if rule_calls else 0.0,
        "verify.monotone_self_s": tracer.self_time("verify.check_monotone"),
        "verify.welfare_self_s": tracer.self_time("verify.welfare_report"),
        "verify.checked_pairs": tracer.checked_pairs,
        "harness.cell_s_max": max(cells, default=0.0),
        "harness.cell_s_sum": sum(cells),
        "harness.render_s": tracer.self_time("harness.cmd_regime_sweep"),
        "serialize.dump_s": tracer.total_time("serialize.dump_"),
        "serialize.load_s": tracer.total_time("serialize.load_"),
        "serialize.doc_bytes": tracer.doc_bytes,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))
    started = perf()
    import dcbox.cli  # noqa: F401  (every layer, as a user of the CLI loads it)

    import_s = perf() - started
    import workloads

    workload = workloads.make(args.workload, args.toy)
    out_dir = workloads.out_dir(args.workload, args.seed, args.toy)
    workload.setup(args.seed, out_dir)
    workload.first_evaluation()
    setup_at = time.monotonic()
    report = {"setup_at": setup_at, "import_s": import_s}
    if args.probe:
        print(json.dumps(report))
        return 0

    references = []
    if args.seed == 0 and not args.toy:
        stored = json.loads((Path(__file__).parent / "reference.json").read_text(encoding="utf-8"))
        references = stored[args.workload]

    deadline = perf() + args.seconds
    passes = []
    if args.trace:
        from tracer import Tracer

        untraced = workload.run_pass(in_process=True)
        report["untraced_wall"] = untraced.wall
        if isinstance(workload, workloads.SweepWorkload):
            fanned = workload.run_pass(in_process=False)
            report["parallel_efficiency"] = sum(fanned.cell_s) / (workload.workers * fanned.wall)
        tracer = Tracer()
        tracer.install()
        workload.setup(args.seed, out_dir)  # again, so the panel's rules are traced
        setup_layers = layer_metrics(tracer, [])
        layers = []
        while True:
            tracer.reset()
            result = workload.run_pass(in_process=True)
            cells = tracer.kept_durations("harness.sweep_cell")
            layer = layer_metrics(tracer, cells)
            layer["shares"] = {
                name: tracer.self_time(name + ".") / result.wall for name in LAYERS
            }
            layers.append(layer)
            passes.append(_checked(result, references, len(passes)))
            if perf() >= deadline:
                break
        tracer.uninstall()
        report["layers"] = _median_layers(layers, setup_layers)
        report["layers"]["cli.import_s"] = import_s
        _write_trace(out_dir, tracer)
    else:
        while True:
            passes.append(_checked(workload.run_pass(in_process=False), references, len(passes)))
            if perf() >= deadline:
                break
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report["peak_rss_mb"] = (own + children) / 1024  # ru_maxrss is in KiB on Linux
    report["passes"] = passes
    print(json.dumps(report))
    return 0


def _median_layers(layers: list[dict], setup: dict) -> dict:
    """Median over traced passes; set-up work is added to the metrics that
    set-up moves."""
    out = {}
    for name in layers[0]:
        if name == "shares":
            continue
        out[name] = statistics.median(layer[name] for layer in layers)
    for name in ("adversaries.build_s", "serialize.dump_s"):
        out[name] += setup[name]
    out["shares"] = {
        layer: statistics.median(p["shares"][layer] for p in layers) for layer in LAYERS
    }
    return out


def _write_trace(out_dir: Path, tracer) -> None:
    """The last traced pass's spans and per-(name, parent) totals."""
    document = {
        "spans": [
            {"id": i, "name": n, "start": s, "end": e, "parent": p} for i, n, s, e, p in tracer.spans
        ],
        "totals": [
            {"name": n, "parent": p, "count": t[0], "total_s": t[1], "self_s": t[2]}
            for (n, p), t in sorted(tracer.totals.items(), key=lambda kv: -kv[1][2])
        ],
    }
    (out_dir / "trace.json").write_text(json.dumps(document), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
