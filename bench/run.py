"""dcbox benchmark: time a verification workload end to end, or by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. NAME is one of panel-two, panel-multi,
sweep-two-plus, locality-docs, or `all` to run each in turn. The last line
of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With `--trace 0` the metrics
are the end-to-end ones named in BENCHMARK.json, with `--trace 1` the
per-layer ones. The line before it holds the machine, the toolchain, the
sample counts and quartiles, entry_s_p90, and, when traced, the tracing
overhead and each layer's share of the traced pass.

Set-up is timed in fresh interpreters: PROBES probe processes and the
measuring process each report when their first rule evaluation returned,
and setup_s is the median of those times from process start. The measuring
process then repeats passes for S seconds and checks every entry's verdict
(see gate.py); attempted and failed count entries over all passes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from worker import unit  # noqa: E402
from workloads import NAMES  # noqa: E402

PROBES = 7
TIMEOUT_S = 170


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the smoke test")
    return parser.parse_args(argv)


def _child(args, workload: str, *extra: str, timeout: float) -> tuple[float, dict]:
    """Run the worker; return its start time on the monotonic clock and its report."""
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", workload]
    command += ["--seed", str(args.seed), *extra] + (["--toy"] if args.toy else [])
    started = time.monotonic()
    # A session of its own, so that the sweep's worker processes can be
    # stopped with it if this process is stopped or times out.
    worker = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = worker.communicate(timeout=timeout)
    finally:
        _stop_group(worker)
    if worker.returncode != 0:
        raise RuntimeError(f"worker failed ({worker.returncode}):\n{err[-4000:]}")
    return started, json.loads(out.strip().splitlines()[-1])


def _stop_group(worker: subprocess.Popen) -> None:
    """Kill the worker's process group and wait until it has ended."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(worker.pid, signal.SIGKILL)
    worker.wait()
    for _ in range(100):
        try:
            os.killpg(worker.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "samples": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "samples": len(values)}


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _commit() -> str:
    head = Path(".git") / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    target = Path(".git") / ref[5:]
    if target.is_file():
        return target.read_text(encoding="utf-8").strip()
    packed = Path(".git") / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def run_one(args, workload: str) -> tuple[dict, dict]:
    """Measure one workload; return (context, result line)."""
    deadline = time.monotonic() + TIMEOUT_S
    setups = []
    for _ in range(PROBES):
        started, probe = _child(args, workload, "--probe", timeout=deadline - time.monotonic())
        setups.append(probe["setup_at"] - started)
    started, report = _child(
        args,
        workload,
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        timeout=deadline - time.monotonic(),
    )
    setups.append(report["setup_at"] - started)

    passes = report["passes"]
    walls = [p["wall"] for p in passes]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    context = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "commit": _commit(),
        },
        "wall_s": _quartiles(walls),
        "setup_s": _quartiles(setups),
        "entries": sum(len(p["entry_s"]) for p in passes),
        "failed_ratio": failed / attempted,
        "problems": [line for p in passes for line in p["problems"]][:10],
    }
    if args.trace:
        layers = report["layers"]
        shares = layers.pop("shares")
        shares["bench"] = 1 - sum(shares.values())
        layers["harness.parallel_efficiency"] = report.get("parallel_efficiency", 0.0)
        traced = statistics.median(walls)
        context["tracing_overhead"] = {
            "untraced_wall_s": report["untraced_wall"],
            "traced_wall_s": traced,
            "share": traced / report["untraced_wall"] - 1,
        }
        context["layer_shares"] = shares
        metrics = {name: {"value": value, "unit": unit(name)} for name, value in sorted(layers.items())}
    else:
        entry_s = [t for p in passes for t in p["entry_s"]]
        rates = [p["inputs"] / p["wall"] for p in passes]
        # Reported but not gated: on the panels the 90th percentile falls just
        # past the knapsack entries, in the seed-dependent tail of the random
        # ones, and its spread across seeds exceeds any allowed bound.
        context["entry_s_p90"] = {"value": _p90(entry_s), "unit": "s", "samples": len(entry_s)}
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "inputs_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return context, result


def main(argv=None) -> int:
    # Turn SIGTERM into an exception, so that subprocess.run kills and waits
    # for the running worker before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = _parse(argv)
    if not (Path("src") / "dcbox" / "__init__.py").is_file():
        print("error: run from the root of a dcbox checkout (src/dcbox not found)", file=sys.stderr)
        return 2
    status = 0
    for workload in NAMES if args.workload == "all" else (args.workload,):
        try:
            context, result = run_one(args, workload)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
        if "entry_s_p90" in context:
            print(f"{workload} entry_s_p90 {context['entry_s_p90']['value']:.6g} s (not gated)")
        print(json.dumps({"context": context}))
        print(json.dumps(result))
        status = status or (0 if result["correct"] else 1)
    return status if args.workload == "all" else 0


if __name__ == "__main__":
    sys.exit(main())
