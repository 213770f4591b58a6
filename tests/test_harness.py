"""Harness: config parsing, verify/sweep/payments/adversary/opt commands, CLI."""

import hashlib
import itertools
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from dcbox import (
    CachedRule,
    NonMonotoneRuleError,
    ParameterError,
    ParseError,
    TransformedRule,
    all_inputs,
    gen_all_ones,
    gen_block_adversary,
    gen_hamming_adversary,
    gen_knapsack,
    gen_random_algorithm,
    gen_random_environment,
    gen_thm1,
    welfare_report,
)
from dcbox import transforms, verify
from dcbox.adversaries import GENERATORS
from dcbox.cli import main
from dcbox.harness import (
    CONFIG_KEYS,
    ExperimentConfig,
    _verify_entry,
    build_algorithm,
    cmd_adversary,
    cmd_opt,
    cmd_payments,
    cmd_regime_sweep,
    cmd_verify,
    ladder_for_ratio,
    parse_config,
    ratio_value,
)
from dcbox.model import ValueLadder
from oracles import counting


def config_text(*lines):
    return "dcbox-config 1\n" + "\n".join(lines) + "\n"


def strip_duration(document):
    return re.sub(r"^duration-ms \d+$", "duration-ms X", document, flags=re.M)


class TestConfigParsing:
    def test_full_verify_config(self):
        config = parse_config(
            config_text(
                "transformation two",
                "generator all-ones",
                "param n 3",
                "ladder 1 100",
                "seed 4",
                "enum-bound 5000",
                "query-budget 10 2",
                "workers 2",
            )
        )
        assert config.transformation == "two"
        assert config.generator == "all-ones"
        assert dict(config.params)["n"] == "3"
        assert config.ladder == ValueLadder.of(1, 100)
        assert config.seed == 4
        assert config.enum_bound == 5000
        assert config.query_budget == (10, 2)
        assert config.workers == 2

    def test_unknown_key(self):
        with pytest.raises(ParseError):
            parse_config(config_text("no-such-key 1"))

    def test_bad_ladder_names_field(self):
        with pytest.raises(ParseError) as excinfo:
            parse_config(config_text("ladder 10 1"))
        assert "ladder" in str(excinfo.value)

    def test_ratio_tokens(self):
        assert ratio_value("n", 6) == 6
        assert ratio_value("2n", 6) == 12
        assert ratio_value("n^2", 6) == 36
        assert ratio_value("n+1", 6) == 7
        assert ratio_value("2n+1", 6) == 13
        assert ratio_value("7/2", 6) == Fraction(7, 2)
        with pytest.raises(ParameterError):
            ratio_value("bogus", 6)
        with pytest.raises(ParameterError):
            ladder_for_ratio("1", 6)


class TestBuildAlgorithm:
    def test_unknown_generator(self):
        # A config document refuses the name at its line; keyword-built
        # configs are checked here.
        config = ExperimentConfig(generator="nonsense", params=(("n", "3"),))
        with pytest.raises(ParameterError):
            build_algorithm(config)

    def test_randomized_generator_needs_seed(self):
        config = parse_config(config_text("generator thm1", "param m 2"))
        with pytest.raises(ParameterError) as excinfo:
            build_algorithm(config)
        assert "seed" in str(excinfo.value)

    def test_generator_and_path_are_exclusive(self):
        config = parse_config(
            config_text("generator all-ones", "param n 2", "algorithm somewhere.txt")
        )
        with pytest.raises(ParameterError):
            build_algorithm(config)

    def test_knapsack_from_config(self):
        config = parse_config(
            config_text(
                "generator knapsack",
                "param weights 2,2,3",
                "param capacity 4",
                "param policy optimal",
                "ladder 1 5",
            )
        )
        alg = build_algorithm(config)
        assert alg.name == "knapsack-optimal"
        assert alg.env.n == 3

    # Each generator from README's params (n <= 8), and the direct gen_* call it must equal.
    @pytest.mark.parametrize(
        "lines, direct",
        [
            (
                ["generator thm1", "param m 2", "seed 5", "ladder 1 3"],
                lambda: gen_thm1(2, 5, ValueLadder.of(1, 3)).algorithm,
            ),
            (
                ["generator block", "param L1 6", "param L2 4", "param L3 2", "param ones 3", "seed 4"],
                lambda: gen_block_adversary(6, 4, 2, 3, seed=4).algorithm,
            ),
            (
                ["generator block", "param L1 6", "param L2 4", "param L3 2", "param ones 3"]
                + ["param positions 5,2,3", "ladder 1 3"],
                lambda: gen_block_adversary(
                    6, 4, 2, 3, positions=[5, 2, 3], ladder=ValueLadder.of(1, 3)
                ).algorithm,
            ),
            (
                ["generator hamming", "param m 4", "param f 1", "ladder 1 3"],
                lambda: gen_hamming_adversary(4, 1, ValueLadder.of(1, 3)).algorithm,
            ),
            (
                ["generator all-ones", "param n 5", "ladder 1 2 5"],
                lambda: gen_all_ones(5, ValueLadder.of(1, 2, 5)),
            ),
            (
                ["generator knapsack", "param weights 2,1,3/2,2", "param capacity 4", "ladder 1 2 5"],
                lambda: gen_knapsack([2, 1, Fraction(3, 2), 2], 4, "greedy", ValueLadder.of(1, 2, 5)),
            ),
            (
                ["generator knapsack", "param weights 2,1,3/2,2", "param capacity 4"]
                + ["param policy optimal", "ladder 1 2 5"],
                lambda: gen_knapsack([2, 1, Fraction(3, 2), 2], 4, "optimal", ValueLadder.of(1, 2, 5)),
            ),
            (
                ["generator random", "param n 5", "seed 3", "ladder 1 2 5"],
                lambda: gen_random_algorithm(
                    gen_random_environment(5, ValueLadder.of(1, 2, 5), 3), 4
                ),
            ),
        ],
        ids=[
            "thm1",
            "block-seeded",
            "block-positions",
            "hamming",
            "all-ones",
            "knapsack-greedy",
            "knapsack-optimal",
            "random",
        ],
    )
    def test_table_row_calls_its_generator(self, lines, direct):
        built = build_algorithm(parse_config(config_text(*lines)))
        expected = direct()
        assert (built.name, built.env) == (expected.name, expected.env)
        for v in all_inputs(expected.env.n, expected.env.k):
            assert built(v) == expected(v)

    def test_readme_lists_each_generators_params(self):
        # README's "Generator params" list: one bullet per generator naming
        # its params in order, the optional ones after "optional", and
        # "needs a seed" exactly for the randomized ones.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\nGenerator params", 1)[1].split("\n\n", 2)[1]
        bullets = [" ".join(item.split()) for item in section.split("\n- ")]
        listed = {}
        for bullet in bullets:
            name, *params = re.findall(r"`([^`]+)`", bullet)
            optional = re.findall(r"optional `([^`]+)`", bullet)
            listed[name] = (params, optional, "needs a seed" in bullet)
        assert listed == {
            name: (list(row.params), list(row.optional), row.seeded)
            for name, row in GENERATORS.items()
        }


class TestConfigKeysInReadme:
    def test_readme_names_every_config_key(self):
        # README's "Config keys:" paragraph, up to "Generator params".
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        paragraph = readme.split("\nConfig keys:", 1)[1].split("\nGenerator params", 1)[0]
        named = set(re.findall(r"`([a-z-]+)[` ]", " ".join(paragraph.split())))
        assert set(CONFIG_KEYS) - named == set()


class TestCmdVerify:
    def test_all_ones_record(self):
        config = parse_config(
            config_text(
                "transformation two",
                "generator all-ones",
                "param n 3",
                "ladder 1 100",
            )
        )
        record = cmd_verify(config)
        assert record.total_violations == 0
        entry = record.entries[0]
        assert entry.welfare.full_welfare_count == 2
        assert entry.max_radius <= 2
        document = record.to_document()
        assert "monotone.violations 0" in document
        assert "welfare.full-count 2" in document

    def test_const_over_hamming_ratio_inequality(self):
        config = parse_config(
            config_text(
                "transformation const",
                "generator hamming",
                "param m 6",
                "param f 3",
                "ladder 1 2",
            )
        )
        entry = cmd_verify(config).entries[0]
        low_over_high = Fraction(1, 2)
        assert entry.welfare.approx_ratio_rule >= low_over_high * entry.welfare.approx_ratio_original

    def test_reproducible_documents(self, tmp_path):
        config = parse_config(
            config_text(
                "transformation two-plus",
                "generator random",
                "param n 4",
                "ladder 1 9",
                "seed 12",
            )
        )
        first = cmd_verify(config).to_document()
        second = cmd_verify(config).to_document()
        assert strip_duration(first) == strip_duration(second)

    def test_output_written(self, tmp_path):
        out = tmp_path / "record.txt"
        config = parse_config(
            config_text(
                "transformation const",
                "generator all-ones",
                "param n 2",
                f"output {out}",
            )
        )
        record = cmd_verify(config)
        assert out.read_text() == record.to_document()

    def test_missing_transformation(self):
        config = parse_config(config_text("generator all-ones", "param n 2"))
        with pytest.raises(ParameterError):
            cmd_verify(config)

    def test_sampled_mode_recorded_above_enum_bound(self):
        config = parse_config(
            config_text(
                "transformation two",
                "generator all-ones",
                "param n 6",
                "ladder 1 6",
                "enum-bound 20",
                "seed 3",
            )
        )
        record = cmd_verify(config)
        entry = record.entries[0]
        assert entry.monotone.sampled and entry.welfare.sampled
        document = record.to_document()
        assert "monotone.sampled true" in document
        assert "welfare.sampled true" in document
        assert strip_duration(document) == strip_duration(cmd_verify(config).to_document())

    def test_sampled_entry_passes_indices_through_its_cached_rule(self, monkeypatch):
        # Sampled verification evaluates the rule a CachedRule wraps, at the
        # drawn indices: no input is decoded into a vector and indexed again.
        calls = Counter()

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[module.__name__, name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(verify, "input_at")
        counted(verify, "index_within")
        counted(transforms, "index_within")
        config = parse_config(
            config_text(
                "transformation two",
                "generator random",
                "param n 6",
                "ladder 1 7",
                "seed 3",
                "enum-bound 30",
            )
        )
        entry = cmd_verify(config).entries[0]
        assert entry.monotone.sampled and entry.welfare.sampled
        assert entry.monotone.violations == []
        assert calls == Counter()

    def test_polynomial_query_budget_applies_per_evaluation(self):
        from dcbox import QueryBudgetExceeded

        # budget 1 * n^0 = 1 query per evaluation; the distance-2 search
        # needs more than one query whenever the first answer has no high 1
        starving = parse_config(
            config_text(
                "transformation two",
                "generator hamming",
                "param m 2",
                "param f 1",
                "ladder 1 2",
                "query-budget 1 0",
            )
        )
        with pytest.raises(QueryBudgetExceeded):
            cmd_verify(starving)
        roomy = parse_config(
            config_text(
                "transformation two",
                "generator hamming",
                "param m 2",
                "param f 1",
                "ladder 1 2",
                "query-budget 2 2",  # 2 * n^2 covers the worst case
            )
        )
        assert cmd_verify(roomy).total_violations == 0

    @pytest.mark.parametrize("radius", [None, 6])
    def test_budget_verdict_independent_of_radius(self, radius):
        from dcbox import QueryBudgetExceeded

        # multi at n=5 needs up to 171 queries in one evaluation, all within
        # radius 5, so a radius of 6 restricts nothing and must not change
        # whether a budget holds
        def config(c):
            lines = ["transformation multi", "generator random", "param n 5"]
            lines += ["ladder 1 5 25", "seed 2", f"query-budget {c} 2"]
            if radius is not None:
                lines.append(f"hamming-radius {radius}")
            return parse_config(config_text(*lines))

        with pytest.raises(QueryBudgetExceeded):
            cmd_verify(config(4))  # 4 * 5^2 = 100 queries
        assert "queries.max-per-eval 171" in cmd_verify(config(7)).to_document()


class TestCmdSweep:
    def sweep_config(self, workers=1):
        return parse_config(
            config_text(
                "transformation two",
                "sweep-n 3 4",
                "sweep-ratio n 2n",
                "panel-random 2",
                "seed 5",
                f"workers {workers}",
            )
        )

    def test_cells_meet_half_threshold(self):
        records, document = cmd_regime_sweep(self.sweep_config())
        assert len(records) == 4
        assert [r.cell for r in records] == [(3, "n"), (3, "2n"), (4, "n"), (4, "2n")]
        for record in records:
            assert record.total_violations == 0
            assert record.min_pointwise() >= Fraction(1, 2)
        assert document.count("meets-threshold true") == 4

    def test_empty_sweep_rejected(self):
        config = parse_config(config_text("transformation two", "sweep-ratio n"))
        with pytest.raises(ParameterError):
            cmd_regime_sweep(config)

    def test_workers_agree_with_sequential(self):
        _, sequential = cmd_regime_sweep(self.sweep_config(workers=1))
        _, parallel = cmd_regime_sweep(self.sweep_config(workers=2))
        stripped = [re.sub(r"config.workers \d+", "", strip_duration(d)) for d in (sequential, parallel)]
        assert stripped[0] == stripped[1]

    def test_block_adversary_pointwise_decays_with_size(self):
        # constant ratio, growing hidden block: the pointwise minimum of the
        # distance-2 transformation falls, and so does its approximation ratio
        from dcbox import TransformedRule, gen_block_adversary, welfare_report

        small = gen_block_adversary(8, 4, 1, 3, seed=2, ladder=ValueLadder.of(1, 2))
        large = gen_block_adversary(10, 5, 1, 4, seed=2, ladder=ValueLadder.of(1, 2))
        fractions = []
        ratios = []
        for inst in (small, large):
            report = welfare_report(
                TransformedRule("two", inst.algorithm), inst.algorithm, inst.algorithm.env
            )
            fractions.append(report.pointwise_min_fraction)
            ratios.append(report.approx_ratio_rule)
        assert fractions[1] < fractions[0]
        assert fractions == [Fraction(2, 3), Fraction(1, 2)]
        assert ratios == [Fraction(1, 6), Fraction(1, 8)]


class TestCmdPayments:
    def test_single_item_winner_pays_low(self):
        config = parse_config(
            config_text(
                "transformation identity",
                "generator knapsack",
                "param weights 1,1",
                "param capacity 1",
                "param policy optimal",
                "ladder 1 2",
                "input hl",
            )
        )
        document = cmd_payments(config)
        assert "allocation 10" in document
        assert "agent 0 bit 1 payment 1" in document
        assert "agent 1 bit 0 payment 0" in document

    def test_all_ones_pay_lowest(self):
        config = parse_config(
            config_text(
                "transformation identity",
                "generator all-ones",
                "param n 3",
                "ladder 1 4",
                "input hhl",
            )
        )
        document = cmd_payments(config)
        assert document.count("payment 1") == 3

    def test_non_monotone_rule_refused(self, tmp_path):
        # hand-built case table: the only winner drops out when raised
        doc = tmp_path / "anti.txt"
        doc.write_text(
            "dcbox-adversary 1\n"
            "name anti\n"
            "n 1\n"
            "ladder 1 2\n"
            "maximal 1\n"
            "default 0\n"
            "case 0 1\n"
        )
        config = parse_config(
            config_text("transformation identity", f"algorithm {doc}", "input h")
        )
        with pytest.raises(NonMonotoneRuleError) as excinfo:
            cmd_payments(config)
        assert len(excinfo.value.report.violations) >= 1


class TestCmdAdversary:
    def test_deterministic_documents(self):
        config = parse_config(
            config_text("generator thm1", "param m 2", "seed 7", "ladder 1 2")
        )
        assert cmd_adversary(config) == cmd_adversary(config)

    def test_round_trip_through_verify(self, tmp_path):
        doc_path = tmp_path / "hamming.txt"
        config = parse_config(
            config_text(
                "generator hamming",
                "param m 4",
                "param f 2",
                "ladder 1 2",
                f"output {doc_path}",
            )
        )
        cmd_adversary(config)
        verify_config = parse_config(
            config_text("transformation identity", f"algorithm {doc_path}")
        )
        entry = cmd_verify(verify_config).entries[0]
        assert entry.welfare.approx_ratio_original == Fraction(1, 2)

    def test_reloaded_algorithm_matches_generator(self, tmp_path):
        from dcbox import gen_thm1
        from dcbox.serialize import load_adversary

        doc_path = tmp_path / "thm1.txt"
        config = parse_config(
            config_text("generator thm1", "param m 2", "seed 9", f"output {doc_path}")
        )
        cmd_adversary(config)
        loaded = load_adversary(doc_path.read_text(), source=str(doc_path))
        rebuilt = loaded.build_algorithm()
        inst = gen_thm1(2, seed=9)
        for v in inst.algorithm.env.inputs():
            assert rebuilt(v) == inst.algorithm(v)

    def test_unknown_generator(self):
        with pytest.raises(ParameterError):
            cmd_adversary(ExperimentConfig(generator="nonsense"))

    # A spec is the generator, its params, the ladder and the seed; the value is
    # the sha256 of its document. `hamming` has no table of its own, so its
    # digests also pin tabulate's choice of default.
    PINNED = {
        "hamming m=2 f=0 ladder=1,2": (
            "57ff15bea44975a0943f6754d4ed8c2d2ad65fddf85d145948415b038e645305"
        ),
        "hamming m=2 f=2 ladder=1,2": (
            "245893e8cc66c6c267c0ee628e2890bc75edfcd213d4c7aafc54454a6ddd7246"
        ),
        "hamming m=4 f=1 ladder=1,5": (
            "6df3fdcd5719c6e1c2cbbfd9377b914ea39e8920f59ddd7017ff2cb35ecce94f"
        ),
        "hamming m=6 f=3 ladder=1,2": (
            "cd0c3e51d05391c3e04d3958ed8766de4fe76756f616c616699df585c5e178ff"
        ),
        "thm1 m=2 ladder=1,2 seed=7": (
            "3e290ea4eb9620df7ce86b08a503b362a10a56ea0c6661cc6642a25ec003db8f"
        ),
        "thm1 m=4 ladder=1,2 seed=3": (
            "dd10f45bbf262cb9d1403978c1133fdbcac8f10503736e666ec6fe67298c080b"
        ),
        "block L1=6 L2=4 L3=1 ones=2 ladder=1,2 seed=5": (
            "e1163cd11fbb588ced068194235794618f75b1bfd7b3640cf3b78754e2b5ac81"
        ),
        "block L1=6 L2=4 L3=1 ones=2 positions=3,5 ladder=1,2": (
            "95c9c229f625697933c4261f81e9827c479ad7690b5bd94ace9e8d66ffa55d24"
        ),
        "all-ones n=3 ladder=1,3": (
            "5773c3c67fd4840729d758ce873bcb5a4cfc693ecd051e5d04e3dc12d2180f70"
        ),
        "knapsack weights=1,2,3,1 capacity=3 ladder=1,2": (
            "22398094508e7fca48a71ee22df36fbc1fd7686ff1fa821c2ead315375cac098"
        ),
        "knapsack weights=1,2,3,1 capacity=3 policy=optimal ladder=1,3": (
            "562bf4812965f58f9c5a759ae07afc75b91f25b1a619973d89733a2911bfd2fd"
        ),
        "random n=3 ladder=1,2,4 seed=11": (
            "f3a5966d073dbb8626cb3fb8238f8e60014ec1c66dc1d610a3731d9f3550920d"
        ),
    }

    @pytest.mark.parametrize("spec", PINNED)
    def test_document_bytes_are_pinned(self, spec):
        generator, *pairs = spec.split()
        params = dict(pair.split("=") for pair in pairs)
        ladder = ValueLadder.of(*map(int, params.pop("ladder").split(",")))
        seed = int(params.pop("seed")) if "seed" in params else None
        config = ExperimentConfig(
            generator=generator, params=tuple(params.items()), ladder=ladder, seed=seed
        )
        digest = hashlib.sha256(cmd_adversary(config).encode()).hexdigest()
        assert digest == self.PINNED[spec]


class TestCmdOpt:
    def test_from_environment_file(self, tmp_path):
        env_path = tmp_path / "env.txt"
        env_path.write_text("dcbox-env 1\nn 2\nladder 1 2\nmaximal 10\nmaximal 01\n")
        config = ExperimentConfig(environment_path=str(env_path), input_text="hl")
        assert cmd_opt(config) == 2

    def test_input_width_checked(self, tmp_path):
        env_path = tmp_path / "env.txt"
        env_path.write_text("dcbox-env 1\nn 2\nladder 1 2\nmaximal 10\n")
        config = ExperimentConfig(environment_path=str(env_path), input_text="hhh")
        with pytest.raises(ParameterError):
            cmd_opt(config)


class TestVerifyEntry:
    @pytest.mark.parametrize(
        "kind, ladder",
        [("const", (1, 5)), ("two", (1, 5)), ("two-plus", (1, 5)), ("multi", (1, 4, 16))],
    )
    def test_algorithm_runs_once_per_input(self, kind, ladder):
        # The welfare report's original, the algorithm, answers from the rule's live table.
        env = gen_random_environment(4, ValueLadder.of(*ladder), 8100)
        alg = gen_random_algorithm(env, 8200)
        counted, calls = counting(alg)
        entry = _verify_entry(ExperimentConfig(), counted, kind)
        assert sum(calls.values()) == len(ladder) ** 4
        assert set(calls.values()) == {1}
        assert entry.welfare == welfare_report(CachedRule(TransformedRule(kind, alg)), alg, env)


# A valid payments config; its input line comes last.
PAYMENTS_LINES = (
    "transformation two",
    "generator all-ones",
    "param n 3",
    "ladder 1 100",
    "input hll",
)


class TestCli:
    def write_config(self, tmp_path, *lines):
        path = tmp_path / "config.txt"
        path.write_text(config_text(*lines))
        return str(path)

    def test_verify_success_exit_zero(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path, "transformation two", "generator all-ones", "param n 3", "ladder 1 100"
        )
        assert main(["verify", "--config", path]) == 0
        assert "monotone.violations 0" in capsys.readouterr().out

    def test_verify_violations_exit_one(self, tmp_path, capsys):
        doc = tmp_path / "anti.txt"
        doc.write_text(
            "dcbox-adversary 1\nname anti\nn 1\nladder 1 2\nmaximal 1\n"
            "default 0\ncase 0 1\n"
        )
        path = self.write_config(tmp_path, "transformation identity", f"algorithm {doc}")
        assert main(["verify", "--config", path]) == 1
        assert "monotone.violations 1" in capsys.readouterr().out

    def test_infeasible_default_exit_two(self, tmp_path, capsys):
        # an "original" above the optimum would otherwise be verified
        doc = tmp_path / "over.txt"
        doc.write_text("dcbox-adversary 1\nname over\nn 2\nladder 1 2\nmaximal 10\ndefault 11\n")
        path = self.write_config(tmp_path, "transformation identity", f"algorithm {doc}")
        assert main(["verify", "--config", path]) == 2
        assert f"{doc}:6: infeasible allocation 11" in capsys.readouterr().err

    def test_ladder_the_transformation_does_not_take_exit_two(self, tmp_path, capsys):
        out = tmp_path / "result.txt"
        lines = ("transformation two-plus", "generator all-ones", "param n 3", "ladder 1 2 3")
        path = self.write_config(tmp_path, *lines, f"output {out}")
        assert main(["verify", "--config", path]) == 2
        message = "error: transformation 'two-plus' takes 2 ladder values, got 3\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_repeated_config_key_exit_two(self, tmp_path, capsys):
        lines = ("transformation two", "generator all-ones", "param n 3", "transformation multi")
        path = self.write_config(tmp_path, *lines)
        assert main(["verify", "--config", path]) == 2
        message = f"{path}:5: repeated key 'transformation', first at line 2"
        assert message in capsys.readouterr().err

    def test_payments_refusal_exit_one(self, tmp_path, capsys):
        # Each agent wins exactly when low: 4 * 2**3 = 32 violations, the
        # first 20 listed as result documents write them.
        inputs = ["".join(bits) for bits in itertools.product("01", repeat=4)]
        flip = str.maketrans("01", "10")
        header = ["dcbox-adversary 1", "n 4", "ladder 1 2", "maximal 1111", "default 0000"]
        cases = [f"case {u} {u.translate(flip)}" for u in inputs if u != "1111"]
        doc = tmp_path / "anti.txt"
        doc.write_text("\n".join(header + cases) + "\n")
        path = self.write_config(
            tmp_path, "transformation identity", f"algorithm {doc}", "input 0000"
        )
        assert main(["payments", "--config", path]) == 1
        violations = [
            f"violation {u} agent {i} raise 0 1" for u in inputs for i in range(4) if u[i] == "0"
        ]
        assert capsys.readouterr().err.splitlines() == [
            "refused: allocation rule is not monotone (32 violation(s) found)",
            *violations[:20],
        ]

    def test_payments_applies_the_hamming_radius(self, tmp_path, capsys):
        lines = ("generator random", "param n 6", "ladder 1 7", "seed 3", "hamming-radius 1")
        path = self.write_config(tmp_path, "transformation two", *lines, "input 000000")
        assert main(["verify", "--config", path]) == 2
        assert main(["payments", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error: query at distance 1 from the center") == 2

    def test_bare_adversary_default_exit_two(self, tmp_path, capsys):
        doc = tmp_path / "doc.txt"
        doc.write_text("dcbox-adversary 1\nn 2\nladder 1 2\nmaximal 10\ndefault\n")
        path = self.write_config(tmp_path, "transformation identity", f"algorithm {doc}")
        assert main(["verify", "--config", path]) == 2
        assert capsys.readouterr().err == f"error: {doc}:5: default takes one allocation\n"

    def test_config_error_exit_two(self, tmp_path, capsys):
        path = self.write_config(tmp_path, "transformation two", "generator nonsense")
        assert main(["verify", "--config", path]) == 2
        assert "error" in capsys.readouterr().err
        # a malformed input names its config line, or the flag
        path = self.write_config(tmp_path, *PAYMENTS_LINES[:-1], "input 0a1")
        assert main(["payments", "--config", path]) == 2
        message = f"error: {path}:6: input: bad level character 'a' in input '0a1'\n"
        assert capsys.readouterr().err == message
        path = self.write_config(tmp_path, *PAYMENTS_LINES)
        assert main(["payments", "--config", path, "--input", "0a1"]) == 2
        message = "error: --input: bad level character 'a' in input '0a1'\n"
        assert capsys.readouterr().err == message
        # one whose levels miss the ladder names the input key
        assert main(["payments", "--config", path, "--input", "020"]) == 2
        message = "error: input: level 2 outside ladder of 2 values in input '020'\n"
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize(
        "line, flags, message",
        [
            ("query-budget 1 -2", [], "{path}:7: query-budget: must be at least 0, got -2"),
            ("query-budget -1 2", [], "{path}:7: query-budget: must be at least 0, got -1"),
            ("hamming-radius -1", [], "{path}:7: hamming-radius: must be at least 0, got -1"),
            ("enum-bound -5", [], "{path}:7: enum-bound: must be at least 0, got -5"),
            ("panel-random -3", [], "{path}:7: panel-random: must be at least 0, got -3"),
            ("workers 0", [], "{path}:7: workers: must be at least 1, got 0"),
            ("sweep-n 3 0", [], "{path}:7: sweep-n: must be at least 1, got 0"),
            (None, ["--workers", "-2"], "--workers: must be at least 1, got -2"),
            (None, ["--enum-bound", "-3"], "--enum-bound: must be at least 0, got -3"),
            (None, ["--seed", "x"], "--seed: not an integer: 'x'"),
        ],
    )
    def test_integer_outside_its_domain_exit_two(self, tmp_path, capsys, line, flags, message):
        path = self.write_config(tmp_path, *PAYMENTS_LINES, *([line] if line else []))
        for command in ("verify", "payments"):
            assert main([command, "--config", path, *flags]) == 2
            assert capsys.readouterr().err == "error: " + message.format(path=path) + "\n"

    # A valid config for verify, sweep and adversary, one key per line from line 2.
    NAMED_LINES = (
        "transformation two",
        "generator random",
        "param n 2",
        "ladder 1 5",
        "seed 1",
        "sweep-n 2",
        "sweep-ratio n+1",
    )

    @pytest.mark.parametrize(
        "command, line, flags, message",
        [
            (
                "verify",
                "transformation tw0",
                [],
                "{path}:2: transformation: unknown transformation 'tw0'; "
                "known: const, two, two-plus, multi, identity",
            ),
            (
                "verify",
                "generator bogus",
                [],
                "{path}:3: generator: unknown generator 'bogus'; "
                "known: thm1, block, hamming, all-ones, knapsack, random",
            ),
            (
                "adversary",
                None,
                ["--generator", "bogus"],
                "--generator: unknown generator 'bogus'; "
                "known: thm1, block, hamming, all-ones, knapsack, random",
            ),
            (
                "sweep",
                "sweep-ratio n+1 bogus",
                [],
                "{path}:8: sweep-ratio: bad ratio token 'bogus'",
            ),
        ],
    )
    def test_name_outside_its_domain_exit_two(
        self, tmp_path, capsys, command, line, flags, message
    ):
        # The bad value replaces its key's line in a valid config, or comes as a flag.
        key = line.split()[0] if line else None
        lines = [line if text.split()[0] == key else text for text in self.NAMED_LINES]
        path = self.write_config(tmp_path, *lines)
        assert main([command, "--config", path, *flags]) == 2
        assert capsys.readouterr().err == "error: " + message.format(path=path) + "\n"

    @pytest.mark.parametrize("kind", ["config", "adversary", "environment"])
    def test_document_not_utf8_exit_two(self, tmp_path, capsys, kind):
        doc = tmp_path / "doc.txt"
        if kind == "config":
            doc.write_bytes(b"\xff\xfedcbox-config 1\n")
            argv, offset = ["verify", "--config", str(doc)], 0
        elif kind == "adversary":
            doc.write_bytes(b"dcbox-adversary 1\nname \xff\nn 1\nladder 1 2\nmaximal 1\ndefault 1\n")
            config = self.write_config(tmp_path, "transformation two", f"algorithm {doc}")
            argv, offset = ["verify", "--config", config], 23
        else:
            doc.write_bytes(b"dcbox-env 1\nn 1\nladder 1 2\n# \xff\n")
            argv, offset = ["opt", "--environment", str(doc), "--input", "1"], 29
        assert main(argv) == 2
        message = f"error: {doc}: not UTF-8: invalid start byte at byte {offset}\n"
        assert capsys.readouterr().err == message

    def test_malformed_ladder_exit_two(self, tmp_path):
        path = self.write_config(
            tmp_path, "transformation two", "generator all-ones", "param n 2", "ladder 10 1"
        )
        assert main(["verify", "--config", path]) == 2

    def test_empty_sweep_exit_two(self, tmp_path):
        path = self.write_config(tmp_path, "transformation two", "sweep-n 3")
        assert main(["sweep", "--config", path]) == 2

    def test_missing_files_exit_two(self, tmp_path, capsys):
        assert main(["verify", "--config", str(tmp_path / "nowhere.cfg")]) == 2
        path = self.write_config(
            tmp_path, "transformation two", f"algorithm {tmp_path / 'nowhere.txt'}"
        )
        assert main(["verify", "--config", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_generator_param_exit_two(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path, "transformation two", "generator thm1", "param m x", "seed 1"
        )
        assert main(["verify", "--config", path]) == 2
        assert capsys.readouterr().err.startswith("error:")
        path = self.write_config(
            tmp_path,
            "transformation two",
            "generator knapsack",
            "param weights 1,a",
            "param capacity 1",
        )
        assert main(["verify", "--config", path]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_ladder_flag_exit_two(self, capsys):
        args = ["adversary", "--generator", "hamming", "--param", "m=2", "--param", "f=1"]
        assert main([*args, "--ladder", "1 x"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "lines, flags, message",
        [
            (["param n 2", "param n 3"], [], "{path}:4: param: repeated name 'n'"),
            (["param n 3"], ["--param", "n=4", "--param", "n=5"], "--param: repeated name 'n'"),
            (["param n 3"], ["--param", "n=5"], None),
        ],
        ids=["repeated-in-config", "repeated-in-flags", "flag-replaces-config"],
    )
    def test_generator_params(self, tmp_path, capsys, lines, flags, message):
        path = self.write_config(tmp_path, "generator all-ones", *lines)
        code = main(["adversary", "--config", path, *flags])
        captured = capsys.readouterr()
        if message is not None:
            assert code == 2
            assert captured.err == "error: " + message.format(path=path) + "\n"
        else:
            assert code == 0
            document = captured.out.splitlines()
            assert "n 5" in document
            assert [line for line in document if line.startswith("param ")] == ["param n 5"]

    @pytest.mark.parametrize(
        "lines, message",
        [
            (
                ["generator all-ones", "param n 2", "param bogus 7"],
                "{path}:4: generator 'all-ones' takes no param 'bogus'; it takes n",
            ),
            (
                ["generator block", "param L1 6", "param L2 4", "param L3 1", "param ones 2"]
                + ["param positon 3,4", "seed 1"],
                "{path}:7: generator 'block' takes no param 'positon'; "
                "it takes L1, L2, L3, ones, positions",
            ),
            (
                ["generator knapsack", "param weights 1,2", "param capacity 2", "param polcy optimal"],
                "{path}:5: generator 'knapsack' takes no param 'polcy'; "
                "it takes weights, capacity, policy",
            ),
            (["generator hamming", "param m 2"], "generator 'hamming' needs param 'f'"),
            (["generator hamming", "param m 2", "param f x"], "{path}:4: param f: cannot parse 'x'"),
            (["generator random", "param n 2"], "generator 'random' is randomized and needs a seed"),
        ],
        ids=["unknown-name", "misspelt-optional", "misspelt-policy", "missing", "malformed", "seed"],
    )
    def test_generator_param_refused_exit_two(self, tmp_path, capsys, lines, message):
        path = self.write_config(tmp_path, *lines)
        assert main(["adversary", "--config", path]) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"

    @pytest.mark.parametrize(
        "kind, lines, message",
        [
            (
                "config",
                ["param bogus 7", "generator all-ones", "param n 2"],
                "{path}:2: generator 'all-ones' takes no param 'bogus'; it takes n",
            ),
            (
                "config",
                ["param m x", "param f 1", "generator hamming"],
                "{path}:2: param m: cannot parse 'x'",
            ),
            (
                "document",
                ["generator nonsense", "param zz 1"],
                "{path}:3: generator: unknown generator 'nonsense'; "
                "known: thm1, block, hamming, all-ones, knapsack, random",
            ),
            (
                "document",
                ["param zz 1", "generator hamming", "param m 1"],
                "{path}:3: generator 'hamming' takes no param 'zz'; it takes m, f",
            ),
            (
                "document",
                ["generator hamming", "param m 1", "param f x"],
                "{path}:5: param f: cannot parse 'x'",
            ),
            (
                "document",
                ["generator hamming", "param m 1", "param m 2"],
                "{path}:5: param: repeated name 'm'",
            ),
        ],
        ids=[
            "config-param-before-generator",
            "config-malformed-before-generator",
            "document-unknown-generator",
            "document-param-before-generator",
            "document-malformed",
            "document-repeated-name",
        ],
    )
    def test_generator_metadata_fails_at_its_line(self, tmp_path, capsys, kind, lines, message):
        if kind == "config":
            path = self.write_config(tmp_path, *lines)
            argv = ["adversary", "--config", path]
        else:
            doc = tmp_path / "doc.txt"
            body = ["name x", *lines, "n 2", "ladder 1 2", "maximal 10", "default 10"]
            doc.write_text("\n".join(["dcbox-adversary 1", *body]) + "\n")
            config = self.write_config(tmp_path, "transformation two", f"algorithm {doc}")
            path, argv = str(doc), ["verify", "--config", config]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"

    @pytest.mark.parametrize(
        "kind, lines, message",
        [
            ("config", ["param n 2"], "params come from the algorithm document; drop the param keys"),
            ("flag", ["bogus=3"], "--param: generator 'all-ones' takes no param 'bogus'; it takes n"),
            ("flag", ["n=x"], "--param: param n: cannot parse 'x'"),
            ("document", ["generator hamming", "param m 1"], "{doc}: generator 'hamming' needs param 'f'"),
            (
                "document",
                ["generator thm1", "param m 2"],
                "{doc}: generator 'thm1' is randomized and needs a seed",
            ),
            (
                "document",
                ["generator block", "param L1 4", "param L2 3", "param L3 1", "param ones 2"],
                "{doc}: generator 'block' is randomized and needs a seed or param 'positions'",
            ),
        ],
        ids=[
            "param-beside-algorithm",
            "flag-param-unknown",
            "flag-param-malformed",
            "document-param-missing",
            "document-seed-missing",
            "document-seed-or-positions-missing",
        ],
    )
    def test_unread_or_missing_metadata_exit_two(self, tmp_path, capsys, kind, lines, message):
        # A param beside a loaded document would be echoed yet unread; a bad
        # --param names its flag; a document carries what regenerates it.
        doc = tmp_path / "doc.txt"
        metadata = lines if kind == "document" else []
        body = ["name x", *metadata, "n 2", "ladder 1 2", "maximal 10", "default 10"]
        doc.write_text("\n".join(["dcbox-adversary 1", *body]) + "\n")
        if kind == "flag":
            argv = ["adversary", "--generator", "all-ones", "--param", lines[0]]
        else:
            extra = lines if kind == "config" else []
            path = self.write_config(tmp_path, "transformation two", f"algorithm {doc}", *extra)
            argv = ["verify", "--config", path]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message.format(doc=doc)}\n"

    @pytest.mark.parametrize("kind", ["config", "flag", "environment", "adversary"])
    @pytest.mark.parametrize("count", [10, 11])
    def test_ladder_has_at_most_ten_values(self, tmp_path, capsys, kind, count):
        # Documents write a level as one digit. Under identity the random
        # algorithm keeps its violations, which are written at their levels.
        ladder = " ".join(str(value) for value in range(1, count + 1))
        doc = tmp_path / "doc.txt"
        if kind == "config":
            lines = ["transformation identity", "generator random", "param n 2", f"ladder {ladder}"]
            path = self.write_config(tmp_path, *lines, "seed 1")
            argv, where = ["verify", "--config", path], f"{path}:5: ladder"
        elif kind == "flag":
            argv = ["adversary", "--generator", "all-ones", "--param", "n=2", "--ladder", ladder]
            where = "--ladder"
        elif kind == "environment":
            doc.write_text(f"dcbox-env 1\nn 2\nladder {ladder}\nmaximal 10\n")
            argv, where = ["opt", "--environment", str(doc), "--input", "90"], f"{doc}:3: ladder"
        else:
            doc.write_text(f"dcbox-adversary 1\nname x\nn 2\nladder {ladder}\nmaximal 10\ndefault 10\n")
            path = self.write_config(tmp_path, "transformation identity", f"algorithm {doc}")
            argv, where = ["verify", "--config", path], f"{doc}:4: ladder"
        code = main(argv)
        err = capsys.readouterr().err
        if count == 10:
            assert (code, err) == (1 if kind == "config" else 0, "")
        else:
            assert (code, err) == (2, f"error: {where}: at most 10 values, one digit per level\n")

    def test_adversary_flags(self, tmp_path, capsys):
        out = tmp_path / "doc.txt"
        code = main(
            [
                "adversary",
                "--generator",
                "hamming",
                "--param",
                "m=4",
                "--param",
                "f=2",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text().startswith("dcbox-adversary 1\n")

    def test_opt_command(self, tmp_path, capsys):
        env_path = tmp_path / "env.txt"
        env_path.write_text("dcbox-env 1\nn 2\nladder 1 2\nmaximal 10\nmaximal 01\n")
        assert main(["opt", "--environment", str(env_path), "--input", "hl"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_opt_empty_feasibility_warns_on_stderr(self, tmp_path, capsys):
        env_path = tmp_path / "env.txt"
        env_path.write_text("dcbox-env 1\nn 3\nladder 1 2\n")
        assert main(["opt", "--environment", str(env_path), "--input", "010"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "0\n"
        assert captured.err == "warning: optimal welfare over an empty feasibility set is 0\n"

    def test_seed_override(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path,
            "transformation two",
            "generator random",
            "param n 3",
            "ladder 1 9",
            "seed 1",
        )
        main(["verify", "--config", path, "--seed", "2"])
        assert "config.seed 2" in capsys.readouterr().out


def _pinned_command(spec):
    """The subcommand and config lines of a pinned document's spec."""
    command, *words = spec.split()
    if command == "sweep":
        lines = ["transformation two-plus", "sweep-n 3 4", "sweep-ratio n+1 2n+1"]
        return command, lines + ["panel-random 2", "seed 5", f"workers {words[0][-1]}"]
    kind = "two" if command == "payments" else words[0]
    lines = [f"transformation {kind}", "generator random", "seed 3"]
    lines += ["param n 4", "ladder 1 4 16"] if kind == "multi" else ["param n 5", "ladder 1 7"]
    mode = words[-1]
    if mode == "limited":
        lines += ["query-budget 4 2", "hamming-radius 7"]
    elif mode == "sampled":
        lines.append("enum-bound 30")
    elif command == "payments":
        lines.append("input hlhlh")
    return command, lines


class TestPinnedDocuments:
    # sha256 of each CLI result document without its duration-ms line:
    # every kind verified exhaustively, under a query budget and Hamming
    # radius that it stays within, and sampled; a sweep at 1 and 2 workers;
    # one payments document. A change to any kernel, verifier or writer
    # that moves one byte of a result shows here.
    PINNED = {
        "verify const exhaustive": "0d04513e774311705b1709c1902a6ad910a41431cd7061835d94f562d679123f",
        "verify const limited": "2e61cb4703765648f8dc0b97d1da16ae2351245f86b32387564e31a08d0d993c",
        "verify const sampled": "fbee8eb58cd3f7cb9996e1051527db96ed551f522194caf9a443133cd9ffd71c",
        "verify two exhaustive": "08678b83b7da4ed2c9ff889ce565769d8bef195731c098cbb02424f1f4218655",
        "verify two limited": "8e974d6883f55fc7f6d35acef010b6df3133c8927a77b3200cd475b9105bf095",
        "verify two sampled": "0d2128e821e29cf81748f3e303c84bb939272d728b77c37176b61c921aff3db3",
        "verify two-plus exhaustive": "9f07d3e78d738b95cb08504ac0606470b9a9540f87e516b9704e86cef54acc31",
        "verify two-plus limited": "746c728b5a4c5fdb63208642778b2cbc5b94581e6d673f16c784a4281270e5a1",
        "verify two-plus sampled": "7fb9f58852b650a59c4bea1c9fb076f05c13bf073754d4099e2519c87afe6896",
        "verify identity exhaustive": "390d0fa1ab8c983774e85a943bfb41c6289dd97816781a09377ab33aeba6116b",
        "verify identity limited": "1dd623fe0d51e57cf9a3a1c4a52dc85de7e03e1154e7c4c78dbf983681388891",
        "verify identity sampled": "18f627781d72d6aa8a3878e6e3b2162d0a856b905491e73fcd10ddca0c5fca81",
        "verify multi exhaustive": "96e22da152c2126c83d188e91c91ede0745f8345287d85ec608659acd79b33f5",
        "verify multi limited": "61936a598b130778f11ffac55909277538bc2706c94d75135158e7f293befeea",
        "verify multi sampled": "eca932638339d5e0e9d3526eeefaef85715bc2e3288b5971ea19c721fe1d8160",
        "sweep workers=1": "de72f579b4f77fa73bef6dcb2c280494967f8e95a2d13e48bec9f817da6d1ff0",
        "sweep workers=2": "de72f579b4f77fa73bef6dcb2c280494967f8e95a2d13e48bec9f817da6d1ff0",
        "payments two exhaustive": "a8e4bcee1442cdab15e0afc7145aaf32ea86cfb7c925b5c8f683f5462daf3189",
    }

    @pytest.mark.parametrize("spec", PINNED)
    def test_document_bytes_are_pinned(self, spec, tmp_path, capsys):
        command, lines = _pinned_command(spec)
        path = tmp_path / "config.txt"
        path.write_text(config_text(*lines))
        # identity reports the random algorithm's own violations: exit 1.
        assert main([command, "--config", str(path)]) == (1 if "identity" in spec else 0)
        document = re.sub(r"^duration-ms \d+\n", "", capsys.readouterr().out, flags=re.M)
        assert hashlib.sha256(document.encode()).hexdigest() == self.PINNED[spec]
