"""Document formats: round trips and parse diagnostics."""

import pytest

from dcbox import (
    Allocation,
    Environment,
    FeasibilitySet,
    ParameterError,
    ParseError,
    ValueLadder,
    ValuationVector,
    gen_hamming_adversary,
    gen_thm1,
)
from dcbox.harness import CONFIG_KEYS, parse_config
from dcbox.serialize import (
    ADVERSARY_KEYS,
    ENV_KEYS,
    adversary_document_for,
    dump_adversary,
    dump_environment,
    format_input,
    format_rational,
    load_adversary,
    load_environment,
    parse_input,
    parse_rational,
)


def bits(text):
    return Allocation(map(int, text))


class TestRationals:
    def test_round_trip(self):
        for text in ("1", "10", "3/2", "7/3"):
            assert format_rational(parse_rational(text)) == text

    def test_bad_token(self):
        # The value parsers carry no location; the record reader adds it.
        with pytest.raises(ParameterError, match=r"^not an exact rational: '1.5.2'$"):
            parse_rational("1.5.2")


class TestInputs:
    def test_digits(self):
        assert parse_input("102", 3).levels == (1, 0, 2)
        assert format_input(ValuationVector((1, 0, 2))) == "102"

    def test_letters(self):
        assert parse_input("hl", 2).levels == (1, 0)
        assert parse_input("hml", 3).levels == (2, 1, 0)

    def test_mid_letter_needs_three_values(self):
        with pytest.raises(ParseError):
            parse_input("ml", 2)

    def test_out_of_range_digit(self):
        with pytest.raises(ParseError):
            parse_input("20", 2)


class TestEnvironmentDocuments:
    def make_env(self):
        feas = FeasibilitySet(4, frozenset({bits("1100"), bits("0011")}))
        return Environment(4, ValueLadder.of("3/2", 10), feas)

    def test_bit_exact_round_trip(self):
        env = self.make_env()
        text = dump_environment(env)
        again = load_environment(text)
        assert again == env
        assert dump_environment(again) == text

    def test_non_increasing_ladder_names_the_field(self):
        text = "dcbox-env 1\nn 2\nladder 10 1\nmaximal 11\n"
        with pytest.raises(ParseError) as excinfo:
            load_environment(text, source="bad.env")
        assert "ladder" in str(excinfo.value)
        assert "bad.env:3" in str(excinfo.value)

    def test_wrong_header(self):
        with pytest.raises(ParseError):
            load_environment("dcbox-env 99\nn 1\n")

    def test_missing_ladder(self):
        with pytest.raises(ParseError) as excinfo:
            load_environment("dcbox-env 1\nn 2\nmaximal 11\n")
        assert "ladder" in str(excinfo.value)

    def test_bad_allocation_width(self):
        text = "dcbox-env 1\nn 3\nladder 1 2\nmaximal 11\n"
        with pytest.raises(ParseError):
            load_environment(text)

    def test_comments_and_blank_lines_ignored(self):
        env = self.make_env()
        lines = dump_environment(env).splitlines()
        noisy = "\n\n# comment\n".join(lines) + "\n"
        assert load_environment(noisy) == env


class TestAdversaryDocuments:
    def test_round_trip_agrees_on_all_inputs(self):
        for generator, params, builder in (
            ("thm1", (("m", "2"),), lambda: gen_thm1(2, seed=7)),
            ("hamming", (("m", "4"), ("f", "2")), lambda: gen_hamming_adversary(4, 2)),
        ):
            inst = builder()
            doc = adversary_document_for(inst.algorithm, generator=generator, seed=7, params=params)
            text = dump_adversary(doc)
            loaded = load_adversary(text)
            assert loaded.environment == inst.algorithm.env
            reloaded = loaded.build_algorithm()
            for v in inst.algorithm.env.inputs():
                assert reloaded(v) == inst.algorithm(v)

    def test_serialization_is_deterministic(self):
        inst = gen_thm1(2, seed=7)
        doc = adversary_document_for(inst.algorithm, generator="thm1", seed=7)
        assert dump_adversary(doc) == dump_adversary(doc)

    def test_metadata_round_trip(self):
        inst = gen_hamming_adversary(4, 2)
        doc = adversary_document_for(
            inst.algorithm, generator="hamming", seed=None, params=(("m", "4"), ("f", "2"))
        )
        loaded = load_adversary(dump_adversary(doc))
        assert loaded.generator == "hamming"
        assert loaded.params == (("m", "4"), ("f", "2"))
        assert loaded.name == inst.algorithm.name

    def test_case_before_n_is_rejected(self):
        text = "dcbox-adversary 1\ndefault 11\nn 2\nladder 1 2\nmaximal 11\n"
        with pytest.raises(ParseError):
            load_adversary(text)

    def test_case_width_checked(self):
        text = (
            "dcbox-adversary 1\nname x\nn 2\nladder 1 2\nmaximal 11\n"
            "default 11\ncase 011 11\n"
        )
        with pytest.raises(ParseError):
            load_adversary(text)


ADVERSARY_PREFIX = "dcbox-adversary 1\nname x\nn 2\nladder 1 2\nmaximal 10\n"


class TestAdversaryLoaderRejects:
    def test_duplicate_case_input(self):
        text = ADVERSARY_PREFIX + "default 10\ncase 01 00\n# repeat\ncase 01 10\n"
        with pytest.raises(ParseError, match=r"^doc:9: duplicate case input '01', first at line 7"):
            load_adversary(text, source="doc")

    def test_duplicate_case_input_in_letters(self):
        text = ADVERSARY_PREFIX + "default 10\ncase hl 00\ncase 10 00\n"
        with pytest.raises(ParseError, match=r"^doc:8: duplicate case input"):
            load_adversary(text, source="doc")

    def test_infeasible_default(self):
        # 11 is not below the only maximal allocation 10
        text = ADVERSARY_PREFIX + "default 11\n"
        with pytest.raises(ParseError, match=r"^doc:6: infeasible allocation 11"):
            load_adversary(text, source="doc")

    def test_infeasible_case(self):
        text = ADVERSARY_PREFIX + "default 10\ncase 00 01\n"
        with pytest.raises(ParseError, match=r"^doc:7: infeasible allocation 01"):
            load_adversary(text, source="doc")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("default", "default takes one allocation"),
            ("default 10 00", "default takes one allocation"),
            ("name", "name takes a name"),
            ("generator", "generator takes one generator name"),
            ("generator g h", "generator takes one generator name"),
            ("seed", "seed takes one integer"),
            ("param m", "param takes a key and a value"),
            ("case 01", "case takes an input and an allocation"),
        ],
    )
    def test_argument_count_is_checked_at_its_line(self, line, message):
        default = "" if line.startswith("default") else "default 10\n"
        text = ADVERSARY_PREFIX.replace("name x\n", "") + line + "\n" + default
        with pytest.raises(ParseError, match=rf"^doc:5: {message}$"):
            load_adversary(text, source="doc")

    def test_name_may_take_several_tokens(self):
        text = ADVERSARY_PREFIX.replace("name x", "name two words") + "default 10\n"
        assert load_adversary(text).name == "two words"

    def test_feasible_cases_load(self):
        text = ADVERSARY_PREFIX + "maximal 01\ndefault 00\ncase 00 10\ncase 11 01\n"
        doc = load_adversary(text, source="doc")
        assert len(doc.table.cases) == 2


# One valid document of each kind, a line per key.
DOCUMENTS = {
    "env": (load_environment, ["dcbox-env 1", "n 2", "ladder 1 2", "maximal 10"]),
    "adversary": (
        load_adversary,
        [
            "dcbox-adversary 1",
            "name x",
            "generator hamming",
            "seed 1",
            "param m 2",
            "param f 1",
            "n 2",
            "ladder 1 2",
            "maximal 10",
            "default 10",
            "case 01 00",
        ],
    ),
    "config": (
        parse_config,
        [
            "dcbox-config 1",
            "transformation two",
            "generator hamming",
            "param m 2",
            "algorithm a.txt",
            "environment e.txt",
            "ladder 1 2",
            "seed 3",
            "enum-bound 10",
            "query-budget 1 2",
            "hamming-radius 2",
            "sweep-n 3",
            "sweep-ratio 2",
            "panel-random 1",
            "threshold 1/2",
            "input 10",
            "workers 1",
            "output out.txt",
        ],
    ),
}
SINGLETON_KEYS = [
    (kind, line.split()[0])
    for kind, (_, lines) in DOCUMENTS.items()
    for line in lines[1:]
    if line.split()[0] not in ("maximal", "case", "param")
]


class TestRepeatedKeys:
    @pytest.mark.parametrize("kind, key", SINGLETON_KEYS)
    def test_repeated_singleton_key_names_the_first_line(self, kind, key):
        load, lines = DOCUMENTS[kind]
        first = next(i for i, line in enumerate(lines, start=1) if line.split()[0] == key)
        text = "\n".join([*lines, "# again", lines[first - 1]]) + "\n"
        message = rf"^doc:{len(lines) + 2}: repeated key '{key}', first at line {first}$"
        with pytest.raises(ParseError, match=message):
            load(text, source="doc")

    @pytest.mark.parametrize(
        "kind, line",
        [("env", "ladder 1 5"), ("adversary", "default 01"), ("config", "transformation multi")],
    )
    def test_a_later_value_does_not_win(self, kind, line):
        load, lines = DOCUMENTS[kind]
        with pytest.raises(ParseError, match="repeated key"):
            load("\n".join([*lines, line]) + "\n", source="doc")

    @pytest.mark.parametrize("kind, key", [("env", "n"), ("adversary", "n"), ("config", "seed")])
    def test_the_first_bad_line_wins(self, kind, key):
        load, lines = DOCUMENTS[kind]
        # line 2 is malformed; the valid line for its key repeats it later
        text = "\n".join([lines[0], f"{key} x", *lines[1:]]) + "\n"
        with pytest.raises(ParseError) as caught:
            load(text, source="doc")
        assert str(caught.value).startswith("doc:2: ")
        assert "repeated key" not in str(caught.value)

    def test_repeated_unknown_key_is_reported_as_unknown(self):
        text = "\n".join([*DOCUMENTS["env"][1], "foo 1", "foo 2"]) + "\n"
        with pytest.raises(ParseError, match=r"^doc:5: unknown key 'foo'$"):
            load_environment(text, source="doc")

    def test_repeatable_keys_accumulate(self):
        env = load_environment("\n".join([*DOCUMENTS["env"][1], "maximal 01"]) + "\n")
        assert len(env.feasibility.maximal) == 2
        extra = ["maximal 01", "case 11 01"]
        doc = load_adversary("\n".join([*DOCUMENTS["adversary"][1], *extra]) + "\n")
        assert len(doc.table.cases) == 2
        assert doc.params == (("m", "2"), ("f", "1"))
        config = parse_config("\n".join([*DOCUMENTS["config"][1], "param f 4"]) + "\n")
        assert config.params == (("m", "2"), ("f", "4"))


class TestSharedKeyRows:
    """Configs and documents read a key they share through one row."""

    def test_configs_and_documents_hold_the_same_row(self):
        for key in ("generator", "seed", "param"):
            assert CONFIG_KEYS[key] is ADVERSARY_KEYS[key]
        assert CONFIG_KEYS["ladder"] is ENV_KEYS["ladder"]
        assert ADVERSARY_KEYS["ladder"] is ENV_KEYS["ladder"]

    @pytest.mark.parametrize(
        "lines",
        [
            ["generator nope"],
            ["seed x"],
            ["param m 2", "param m 3"],
            ["ladder " + " ".join(map(str, range(1, 12)))],
        ],
        ids=["generator", "seed", "param", "ladder"],
    )
    def test_a_bad_value_reads_alike_in_a_config_and_a_document(self, lines):
        messages = []
        for load, header in [(parse_config, "dcbox-config 1"), (load_adversary, "dcbox-adversary 1")]:
            with pytest.raises(ParseError) as caught:
                load("\n".join([header, *lines]) + "\n", source="doc")
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"doc:{len(lines) + 1}: {lines[0].split()[0]}: ")
