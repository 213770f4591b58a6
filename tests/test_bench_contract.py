"""The benchmark's tracer (bench/tracer.py) against the package it wraps.

`Tracer.install` looks up every name it wraps (generators, the black-box
query, `TransformedRule.__call__`, `CachedRule.__call__`, the verifiers,
the harness commands, the document readers and writers, `cli.main`) and
patches it in every dcbox module that holds it. A renamed name therefore
fails here, in the tier-1 suite. A traced run at n=3 must reach the
wrapped verifiers, and `uninstall` must put every original back.
"""

import importlib.util
import sys
from pathlib import Path

import dcbox
from dcbox import adversaries, blackbox, cli, harness, model, serialize, transforms, verify
from dcbox.model import ValueLadder, ValuationVector

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
MODULES = (dcbox, adversaries, blackbox, cli, harness, model, serialize, transforms, verify)


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _bindings():
    """Every name of every dcbox module, and every attribute of the classes
    they define, with the object it is bound to."""
    bound = {}
    for module in MODULES:
        for name, value in vars(module).items():
            bound[module.__name__, name] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    bound[module.__name__, name, attr] = member
    return bound


def test_traced_verifiers_run_and_uninstall_restores_every_name():
    before = _bindings()
    tracer = _tracer()
    tracer.install()
    try:
        assert verify.check_monotone is not before["dcbox.verify", "check_monotone"]
        algorithm = dcbox.gen_all_ones(3, ValueLadder.of(1, 3))
        rule = dcbox.CachedRule(dcbox.TransformedRule("two", algorithm))
        assert dcbox.check_monotone(rule, algorithm.env).is_monotone
        report = dcbox.welfare_report(rule, algorithm, algorithm.env)
        assert report.total_inputs == 8
        assert rule(ValuationVector((1, 0, 1))).n == 3
        # Fresh state under a budget and a radius, over another algorithm,
        # with that algorithm as welfare_report's original.
        knapsack = dcbox.gen_knapsack([1, 2, 1], 2, ladder=ValueLadder.of(1, 3))
        fresh = dcbox.CachedRule(
            dcbox.TransformedRule("two", knapsack, query_budget=7, hamming_radius=3)
        )
        assert dcbox.check_monotone(fresh, knapsack.env).is_monotone
        assert dcbox.welfare_report(fresh, knapsack, knapsack.env).total_inputs == 8
    finally:
        tracer.uninstall()
    assert tracer.count("verify.check_monotone") == 2
    assert tracer.count("verify.welfare_report") == 2
    assert tracer.count("verify.cached_rule") == 1
    assert tracer.count("transforms.rule") == 2 * 8  # one evaluation per input, per rule
    assert tracer.count("blackbox.query") > 0
    assert tracer.count("adversaries.algorithm") > 0
    # Each algorithm answers each distinct input once (calls_per_input 1.0).
    assert tracer.count("adversaries.algorithm") == len(tracer.algorithm_inputs) == 2 * 8
    after = _bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
