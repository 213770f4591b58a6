"""Smoke test of the benchmark at toy sizes; not part of the tier-1 suite.

    python3 -m pytest -q bench/tests

Checks that every metric printed matches BENCHMARK.json by name and unit,
that the correctness gate rejects wrong results, and that the benchmark
refuses to run without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from gate import Claim, check_entry, parse_entries  # noqa: E402
from worker import _checked  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_metrics_match_the_spec(workload, trace):
    done = _run("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", trace, "--toy")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }


def _pass(name: str):
    workload = workloads.make(name, toy=True)
    workload.setup(1, workloads.out_dir(name, 1, True))
    return workload.run_pass(in_process=True)


def test_gate_rejects_broken_verdicts():
    result = _pass("panel-two")
    entry = parse_entries(result.documents[0])[0]
    claim = result.claims[0]
    assert check_entry(entry, claim) == []

    def broken(key, value):
        lines = [f"{key} {value}" if line.startswith(key + " ") else line for line in entry.lines]
        return type(entry)(entry.context, lines)

    assert check_entry(broken("monotone.violations", "1"), claim)
    assert check_entry(broken("welfare.pointwise-min", "1/3"), claim)
    assert check_entry(broken("monotone.sampled", "true"), claim)
    tight = Claim("two", claim.ladder, radius=0, budget=(0, 1))
    assert len(check_entry(entry, tight)) == 2  # radius and budget both exceeded
    plus = Claim("two-plus", (Fraction(1), Fraction(100)))
    assert check_entry(broken("welfare.full-count", "0"), plus)
    assert check_entry(broken("welfare.sum-rule", "0"), plus)


def test_gate_counts_missing_entries_and_digest_mismatches():
    result = _pass("locality-docs")
    assert _checked(result, [])["failed"] == 0
    digests = result.verdicts()[2]
    assert _checked(result, [digests])["failed"] == 0
    assert _checked(result, [[digests[0][::-1], *digests[1:]]])["failed"] == 1
    result.documents.pop()
    assert _checked(result, [])["failed"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "panel-two", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
