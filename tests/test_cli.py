import hashlib
import io
import json
import random
import subprocess
import sys

import pytest

from wordhom import Alphabet, Chain
from wordhom.cli import run
from conftest import subprocess_env


@pytest.fixture
def capture(capsys):
    def invoke(*argv):
        code = run(list(argv))
        return code, capsys.readouterr().out

    return invoke


def test_homology_inj_table(capture):
    code, out = capture("homology", "inj", "--m", "4")
    assert code == 0
    assert "H_4 = Z^9" in out
    assert "H_0 = 0" in out and "H_3 = 0" in out


def test_homology_inj_output_is_pinned(capture):
    # The hash of every answer for m = 1..8, json and text: a change of matching
    # or of kernel must leave it unchanged.
    digest = hashlib.sha256()
    for m in range(1, 9):
        for fmt in ("json", "text"):
            argv = ["homology", "inj", "--m", str(m), "--format", fmt]
            code, out = capture(*argv)
            digest.update(f"{' '.join(argv)}\n{code}\n{out}".encode())
    assert digest.hexdigest() == "c69e563bfb1af285fb9f3197ab709a72979777217e6dcbf0c38159e578a4341b"


def test_homology_inj_checks_the_euler_characteristic(capture, monkeypatch):
    # D_5 = 44; a closed form that disagrees with the matching's rank fails the run.
    monkeypatch.setattr("wordhom.cli.rank_formula", lambda m: 45)
    code, out = capture("homology", "inj", "--m", "5")
    assert code == 1
    assert out.splitlines()[-1] == (
        "FAILED: ['H_5 = Z^44 but the Euler characteristic gives rank 45']"
    )


def test_homology_inj_json(capture):
    code, out = capture("homology", "inj", "--m", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"]["holds"] is True
    by_degree = {g["degree"]: g for g in payload["groups"]}
    assert by_degree[3]["free_rank"] == 2
    assert by_degree[2]["free_rank"] == 0


def test_homology_full_acyclic(capture):
    code, out = capture("homology", "full", "--m", "2", "--max-degree", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(g["free_rank"] == 0 and not g["torsion"] for g in payload["groups"])


def test_homology_gp_vector(capture):
    code, out = capture(
        "homology", "gp", "--p", "3", "--dim", "2", "--base", "[[1, 0]]", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"]["holds"] is True
    assert payload["verified"]["order"]["order"] == 4


def test_homology_gp_injective_relation(capture):
    code, out = capture("homology", "gp", "--m", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["complex"]["relation"]["name"] == "inj"


def test_gp_order_vec(capture):
    code, out = capture("gp-order", "--p", "2", "--dim", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 3
    assert payload["lower_bound"] == 3
    assert len(payload["witness"]) == 3


def test_gp_order_inj(capture):
    code, out = capture("gp-order", "inj", "--m", "5")
    assert code == 0
    assert json.loads(out)["order"] == 5


def test_gp_order_missing_flags(capture):
    code, out = capture("gp-order")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "invalid-input"


def test_axioms_pass_and_seeded_determinism(capture):
    code1, out1 = capture("axioms", "--p", "3", "--dim", "2", "--samples", "60", "--seed", "9")
    code2, out2 = capture("axioms", "--p", "3", "--dim", "2", "--samples", "60", "--seed", "9")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["passed"] is True
    assert payload["seed"] == 9


def test_axioms_inj(capture):
    code, out = capture("axioms", "inj", "--m", "6", "--samples", "50")
    assert code == 0
    assert json.loads(out)["relation"] == "inj"


def test_fill_round_trip(tmp_path, capture):
    alphabet = Alphabet.letters(4)
    cycle = Chain.term(alphabet, (1, 2, 3)).boundary()
    path = tmp_path / "cycle.json"
    path.write_text(cycle.serialize())
    code, out = capture("fill", "--input", str(path), "--check")
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    filling = Chain.from_json(payload["filling"])
    assert filling.boundary() == cycle
    # emitted chains must be readable by the same parser
    reparsed = Chain.parse(json.dumps(payload["input"]))
    assert reparsed == cycle


def test_fill_vector_cycle_with_base(tmp_path, capture):
    alphabet = Alphabet.vectors(3, 2)
    z = Chain.term(alphabet, ((0, 1), (1, 1)))
    cycle = z.boundary()
    path = tmp_path / "vec.json"
    path.write_text(cycle.serialize())
    code, out = capture("fill", "--input", str(path), "--base", "[[1, 0]]")
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_fill_rejects_non_cycle(tmp_path, capture):
    alphabet = Alphabet.letters(4)
    path = tmp_path / "bad.json"
    path.write_text(Chain.term(alphabet, (1, 2)).serialize())
    code, out = capture("fill", "--input", str(path))
    assert code == 2
    assert json.loads(out)["error"]["code"] == "not-a-cycle"


def strict_loads(out: str):
    """json.loads that refuses NaN and Infinity, which are not JSON."""

    def refuse(constant):
        raise AssertionError(f"the output holds {constant}, which is not JSON")

    return json.loads(out, parse_constant=refuse)


LONG_COEFF = (
    b'{"alphabet": {"kind": "letters", "m": 3}, "degree": 1, "terms": '
    b'[{"coeff": ' + b"1" * 5000 + b', "word": [1]}]}'
)
LETTERS_TERM = b'{"alphabet": {"kind": "letters", "m": %s}, "degree": %s, "terms": [%s]}'
VECTOR_TERM = b'{"alphabet": {"kind": "vectors", "p": 5, "dim": 2}, "degree": 1, "terms": [%s]}'


@pytest.mark.parametrize(
    "raw,error",
    [
        (b"{not json", "invalid-input"),
        (b"\xff\xfe", "invalid-input"),
        # Past the interpreter's int digit limit json.loads raises a plain
        # ValueError; without the limit the chain is read and is no cycle.
        (LONG_COEFF, None),
        # Numbers that are not finite; the error JSON must not echo them raw.
        (LETTERS_TERM % (b"3", b"1", b'{"coeff": 1e400, "word": [1]}'), "invalid-input"),
        (LETTERS_TERM % (b"3", b"1", b'{"coeff": NaN, "word": [1]}'), "invalid-input"),
        (LETTERS_TERM % (b"Infinity", b"1", b'{"coeff": 1, "word": [1]}'), "invalid-input"),
        (LETTERS_TERM % (b"3", b"-Infinity", b'{"coeff": 1, "word": [1]}'), "invalid-input"),
        (VECTOR_TERM % b'{"coeff": 1, "word": [[NaN, 1]]}', "invalid-input"),
    ],
    ids=[
        "not-json",
        "not-utf8",
        "long-coeff",
        "coeff-1e400",
        "coeff-nan",
        "m-infinity",
        "degree-minus-infinity",
        "entry-nan",
    ],
)
def test_fill_rejects_malformed_json(tmp_path, capture, raw, error):
    path = tmp_path / "garbage.json"
    path.write_bytes(raw)
    code, out = capture("fill", "--input", str(path))
    assert code == 2
    reported = strict_loads(out)["error"]
    assert error is None or reported["code"] == error


LETTERS_3 = {"kind": "letters", "m": 3}


@pytest.mark.parametrize(
    "chain",
    [
        {"alphabet": LETTERS_3, "degree": 1, "terms": [{"word": [1]}]},
        {"alphabet": LETTERS_3, "degree": 1, "terms": [{"coeff": 1}]},
        {"alphabet": LETTERS_3, "degree": 1, "terms": [[1, [1]]]},
        {"alphabet": LETTERS_3, "degree": 1, "terms": 5},
        {"alphabet": LETTERS_3, "degree": 1, "terms": [{"coeff": True, "word": [1]}]},
        {"alphabet": LETTERS_3, "degree": True, "terms": []},
    ],
)
def test_fill_rejects_malformed_chain(tmp_path, capture, chain):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(chain))
    code, out = capture("fill", "--input", str(path))
    assert code == 2
    assert json.loads(out)["error"]["code"] == "invalid-input"


@pytest.mark.parametrize(
    "alphabet",
    [
        {"kind": "vectors", "p": 2.0, "dim": 2},
        {"kind": "vectors", "p": True, "dim": 2},
        {"kind": "vectors", "p": 2, "dim": True},
        {"kind": "letters", "m": True},
    ],
)
def test_fill_rejects_non_int_alphabet_size(tmp_path, capture, alphabet):
    path = tmp_path / "alphabet.json"
    path.write_text(json.dumps({"alphabet": alphabet, "degree": 0, "terms": []}))
    code, out = capture("fill", "--input", str(path))
    assert code == 2
    assert json.loads(out)["error"]["code"] == "invalid-input"


def test_fill_rejects_bool_vector_entries(tmp_path, capture):
    # JSON true/false are not residues mod p, even though bool is an int.
    chain = {
        "alphabet": {"kind": "vectors", "p": 2, "dim": 2},
        "degree": 1,
        "terms": [{"coeff": 1, "word": [[True, False]]}, {"coeff": -1, "word": [[0, 1]]}],
    }
    path = tmp_path / "bools.json"
    path.write_text(json.dumps(chain))
    code, out = capture("fill", "--input", str(path))
    assert code == 2
    assert json.loads(out)["error"]["code"] == "invalid-input"


def test_fill_rejects_base_not_in_general_position(tmp_path, capture):
    alphabet = Alphabet.vectors(5, 2)
    path = tmp_path / "point.json"
    path.write_text(Chain.term(alphabet, ((0, 1),)).boundary().serialize())
    code, out = capture("fill", "--input", str(path), "--base", "[[1, 0], [2, 0]]")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "precondition-violated"


def test_homology_gp_checks_base_before_order_search(capture, monkeypatch):
    def no_search(relation, max_n=None):
        raise AssertionError("gp_order ran before the base was checked")

    monkeypatch.setattr("wordhom.cli.gp_order", no_search)
    code, out = capture(
        "homology", "gp", "--p", "3", "--dim", "4", "--base", "[[1, 0, 0, 0], [2, 0, 0, 0]]"
    )
    assert code == 2
    assert json.loads(out)["error"]["code"] == "precondition-violated"


LONG_BASE = "[[" + "1" * 5000 + ", 0]]"


@pytest.mark.parametrize(
    "flags,base",
    [
        (("--p", "5", "--dim", "2"), "[[1, 0], [2, 0]]"),
        (("--m", "4"), "[2, 2]"),
        pytest.param(("--p", "5", "--dim", "2"), LONG_BASE, id="long-entry"),
    ],
)
def test_homology_gp_rejects_base_not_in_general_position(capture, flags, base):
    code, out = capture("homology", "gp", *flags, "--base", base)
    assert code == 2
    # Past the int digit limit json.loads fails; without it 11...1 is no residue mod 5.
    expected = "invalid-input" if base == LONG_BASE else "precondition-violated"
    assert json.loads(out)["error"]["code"] == expected


@pytest.mark.parametrize(
    "base,literal",
    [("[[NaN, 1]]", "NaN"), ("[[1, -Infinity]]", "-Infinity"), ("[[1e400, 0]]", "1e400")],
)
@pytest.mark.parametrize(
    "command",
    [("homology", "gp", "--p", "5", "--dim", "2"), ("fill", "--input", "-")],
    ids=["homology-gp", "fill"],
)
def test_base_rejects_numbers_that_are_not_finite(capture, monkeypatch, command, base, literal):
    # fill reads this vector cycle from stdin before it reads --base.
    cycle = Chain.term(Alphabet.vectors(5, 2), ((0, 1), (1, 1))).boundary()
    monkeypatch.setattr("sys.stdin", io.StringIO(cycle.serialize()))
    code, out = capture(*command, "--base", base)
    assert code == 2
    error = strict_loads(out)["error"]
    assert error["code"] == "invalid-input"
    assert error["context"] == {"number": literal}


def test_nakaoka_table_text(capture):
    code, out = capture("nakaoka", "--n", "3", "--max-degree", "1")
    assert code == 0
    assert "H_m(S_2) = Z/2, H_m(S_3) = Z/2" in out
    assert "equal: yes" in out


def test_nakaoka_resource_limit(capture):
    # S_5 has 45 critical cells in degree 3, which H_2 needs.
    code, out = capture("nakaoka", "--n", "5", "--max-degree", "2", "--max-generators", "44")
    assert code == 3
    assert json.loads(out)["error"]["code"] == "resource-limit"


def test_nakaoka_second_homology_in_range(capture):
    code, out = capture("nakaoka", "--n", "5", "--max-degree", "2", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][2]
    assert row["m"] == 2 and row["in_range"] and row["equal"]
    assert row["rhs"] == {"free_rank": 0, "torsion": [2]}


def test_derangements(capture):
    code, out = capture("derangements", "--m", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["derangements"] == 44
    assert payload["closed_form"] == 44
    assert payload["agree"] is True


def test_invalid_subcommand_arguments_exit_two(capture):
    code, _ = capture("homology", "inj")
    assert code == 2


def test_resource_limit_from_flag(capture):
    code, out = capture(
        "homology", "full", "--m", "3", "--max-degree", "4", "--max-basis", "4", "--format", "json"
    )
    assert code == 3
    assert json.loads(out)["error"]["code"] == "resource-limit"


def test_gp_resource_limit_reports_the_degree(capture):
    code, out = capture(
        "homology", "gp", "--p", "5", "--dim", "2", "--base", "[[1,0]]", "--max-basis", "10"
    )
    assert code == 3
    error = json.loads(out)["error"]
    assert error["code"] == "resource-limit"
    assert error["context"] == {"degree": 1, "limit": 10}


@pytest.mark.parametrize(
    "argv",
    [
        ("derangements", "--m", "3", "--seed", "1"),
        ("fill", "--input", "-", "--max-basis", "10"),
        ("gp-order", "--p", "3", "--dim", "2", "--max-generators", "10"),
        ("nakaoka", "--n", "3", "--max-degree", "1", "--max-basis", "10"),
        ("homology", "inj", "--m", "3", "--seed", "1"),
    ],
)
def test_flag_of_another_subcommand_is_rejected(capture, argv):
    code, _ = capture(*argv)
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("gp-order", "inj", "--m", "5", "--max-n", "-1"),
        ("homology", "full", "--m", "2", "--max-degree", "2", "--max-basis", "-1"),
        ("nakaoka", "--n", "3", "--max-degree", "1", "--max-generators", "-1"),
    ],
)
def test_negative_search_bound_or_budget_is_invalid(capture, argv):
    code, out = capture(*argv)
    assert code == 2
    _assert_error_json(out)


def test_max_generators_flag_limits_nakaoka(capture):
    code, out = capture("nakaoka", "--n", "4", "--max-degree", "2", "--max-generators", "10")
    assert code == 3
    assert json.loads(out)["error"]["code"] == "resource-limit"


def test_json_outputs_are_deterministic(capture):
    pairs = [
        ("homology", "inj", "--m", "3", "--format", "json"),
        ("gp-order", "--p", "3", "--dim", "2"),
        ("nakaoka", "--n", "3", "--max-degree", "1", "--format", "json"),
    ]
    for argv in pairs:
        _, first = capture(*argv)
        _, second = capture(*argv)
        assert first == second


def test_jobs_flag_is_rejected(capture):
    code, _ = capture("homology", "inj", "--m", "4", "--jobs", "4")
    assert code == 2


@pytest.mark.parametrize("budget", ["-1", "inf", "nan", "1e12"])
def test_time_budget_out_of_range_is_invalid(capture, budget):
    code, out = capture("derangements", "--m", "3", f"--time-budget={budget}")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["code"] == "invalid-input"
    assert error["context"]["time_budget"] == str(float(budget))


def test_homology_full_rejects_max_degree_zero(capture):
    code, out = capture("homology", "full", "--m", "2", "--max-degree", "0")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "invalid-input"


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-2"])
def test_homology_gp_rejects_bad_max_degree(capture, value):
    code, out = capture("homology", "gp", "--p", "3", "--dim", "2", "--max-degree", value)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "invalid-input"


def test_homology_gp_claim_covers_only_computed_degrees(capture):
    # The theorem's range over F_5^2 is degrees <= 2, but --max-degree 1
    # computes H_0 alone, so the claim must stop there.
    code, out = capture("homology", "gp", "--p", "5", "--dim", "2", "--max-degree", "1")
    assert code == 0
    assert out.splitlines() == ["H_0 = 0", "verified: trivial for degrees <= 0"]
    code, out = capture("homology", "gp", "--p", "5", "--dim", "2")
    assert code == 0
    assert out.splitlines()[-1] == "verified: trivial for degrees <= 2"


def test_time_budget_exits_resource_limit(capture):
    # m = 9 takes seconds, so the budget runs out well before it ends.
    code, out = capture("homology", "inj", "--m", "9", "--time-budget", "0.2")
    assert code == 3
    assert json.loads(out)["error"]["code"] == "resource-limit"


@pytest.mark.parametrize("exc", [MemoryError, RecursionError])
def test_exhausted_memory_or_stack_is_a_resource_limit(capture, monkeypatch, exc):
    def exhaust(args):
        raise exc()

    monkeypatch.setattr("wordhom.cli._cmd_derangements", exhaust)
    code, out = capture("derangements", "--m", "3")
    assert code == 3
    error = json.loads(out)["error"]
    assert error["code"] == "resource-limit"
    assert error["context"] == {"exception": exc.__name__}


def test_other_exceptions_propagate(capture, monkeypatch):
    def broken(args):
        raise ValueError("a bug")

    monkeypatch.setattr("wordhom.cli._cmd_derangements", broken)
    with pytest.raises(ValueError, match="a bug"):
        capture("derangements", "--m", "3")


# -- one parser per process -------------------------------------------------------

REUSE_SEQUENCE = [
    (["homology", "inj", "--m", "3", "--format", "json"], 0),
    (["nakaoka", "--n", "3", "--max-degree", "2"], 0),
    (["derangements", "--m", "3", "--seed", "1"], 2),
    (["--help"], 0),
    (["axioms", "--p", "5", "--dim", "2"], 0),
    (["axioms", "--p", "5", "--dim", "2", "--samples", "7"], 0),
    (["homology", "inj", "--m", "3", "--format", "json"], 0),
]


def test_reused_parser_answers_as_a_fresh_interpreter(capture, monkeypatch):
    # --help wraps its text to the terminal width, read from COLUMNS first.
    monkeypatch.setenv("COLUMNS", "80")
    for argv, expected_code in REUSE_SEQUENCE:
        code, out = capture(*argv)
        alone = subprocess.run(
            [sys.executable, "-m", "wordhom", *argv],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert code == expected_code, argv
        assert (code, out) == (alone.returncode, alone.stdout), argv


def test_parser_is_not_built_at_import():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, wordhom.cli as c; print(c._shared_parser.cache_info().currsize,"
            " sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    # No parser yet, and neither dataclasses nor its inspect import chain loaded.
    assert proc.stdout == "0 []\n"


def test_handler_patched_after_the_parser_is_built_runs(capture, monkeypatch):
    assert capture("derangements", "--m", "3")[0] == 0
    calls = []

    def patched(args):
        calls.append(args.m)
        return 0

    monkeypatch.setattr("wordhom.cli._cmd_derangements", patched)
    assert capture("derangements", "--m", "3") == (0, "")
    assert calls == [3]


@pytest.mark.parametrize("m", ["0", "10"])
def test_homology_inj_cap(capture, m):
    code, out = capture("homology", "inj", "--m", m)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["code"] == "invalid-input"
    assert error["context"] == {"m": int(m)}


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "wordhom", "derangements", "--m", "3"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert "derangements(3) = 2" in proc.stdout


# -- the argument contract ------------------------------------------------------

def _assert_error_json(out, code="invalid-input"):
    assert json.loads(out)["error"]["code"] == code


@pytest.mark.parametrize(
    "argv",
    [
        ("homology", "inj", "--m", "3", "--p", "3"),
        ("homology", "inj", "--m", "3", "--dim", "2"),
        ("homology", "inj", "--m", "3", "--base", "[]"),
        ("homology", "inj", "--m", "3", "--max-degree", "1"),
        ("homology", "inj", "--m", "3", "--max-basis", "100"),
        ("homology", "full", "--m", "2", "--max-degree", "2", "--p", "3"),
        ("homology", "full", "--m", "2", "--max-degree", "2", "--dim", "2"),
        ("homology", "full", "--m", "2", "--max-degree", "2", "--base", "[]"),
        ("homology", "gp", "--m", "4", "--p", "3", "--dim", "2"),
        ("gp-order", "--p", "3", "--dim", "2", "--m", "5"),
        ("gp-order", "inj", "--m", "5", "--p", "3"),
        ("gp-order", "inj", "--m", "5", "--dim", "2"),
        ("axioms", "--p", "3", "--dim", "2", "--m", "5", "--samples", "5"),
        ("axioms", "inj", "--m", "5", "--p", "3", "--samples", "5"),
        ("axioms", "inj", "--m", "5", "--dim", "2", "--samples", "5"),
    ],
)
def test_flag_a_variant_does_not_read_is_rejected(capture, argv):
    code, out = capture(*argv)
    assert code == 2
    _assert_error_json(out)


def test_fill_rejects_base_on_letters_cycle(tmp_path, capture):
    path = tmp_path / "cycle.json"
    path.write_text(Chain.term(Alphabet.letters(3), (1, 2)).boundary().serialize())
    code, out = capture("fill", "--input", str(path), "--base", "[]")
    assert code == 2
    _assert_error_json(out)


@pytest.mark.parametrize(
    "argv",
    [
        ("derangements", "--m", "3", "--seed", "1"),
        ("derangements",),
        ("derangements", "--m", "abc"),
        ("homology", "sideways", "--m", "3"),
        ("gp-order", "both", "--p", "3", "--dim", "2"),
        ("nakaoka", "--n", "3", "--max-degree", "1", "--format", "xml"),
        (),
    ],
)
def test_argparse_rejections_print_the_error_json(capture, argv):
    code, out = capture(*argv)
    assert code == 2
    _assert_error_json(out)


@pytest.mark.parametrize("argv", [("--help",), ("homology", "gp", "--help")])
def test_help_exits_zero(capture, argv):
    code, out = capture(*argv)
    assert code == 0
    assert out.startswith("usage: wordhom")


def test_relation_positional_may_be_left_to_the_flags(capture):
    code, out = capture("gp-order", "--m", "5")
    assert code == 0
    assert json.loads(out)["order"] == 5


@pytest.mark.parametrize(
    "argv",
    [
        ("homology", "full", "--m", "10", "--max-degree", "5000"),
        ("derangements", "--m", "1700"),
        ("nakaoka", "--n", "4", "--max-degree", "5000", "--max-generators", "1" + "0" * 4000),
    ],
)
def test_counts_past_the_digit_limit_are_a_resource_limit(capture, argv):
    code, out = capture(*argv, "--time-budget", "10")
    assert code == 3
    _assert_error_json(out, "resource-limit")


def test_nakaoka_checks_both_caps_before_building(capture, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a Morse complex was built")

    monkeypatch.setattr("wordhom.grouphom.morse_complex", no_build)
    code, out = capture("nakaoka", "--n", "3", "--max-degree", "2000")
    assert code == 3
    _assert_error_json(out, "resource-limit")


def _nakaoka_argvs():
    for n in range(2, 7):
        for degree in range(4):
            argv = ["nakaoka", "--n", str(n), "--max-degree", str(degree)]
            yield argv + ["--format", "json"]
            if n <= 5:
                yield argv + ["--format", "text"]
    for n, degree in ((1, 1), (8, 1), (12, 0), (25, 0), (4, -1)):
        yield ["nakaoka", "--n", str(n), "--max-degree", str(degree)]
    # S_6 is over a budget of 20 in degree 2 and S_5 only in degree 3, so the
    # reported degree shows which group's budget is checked first.
    for n, degree, budget in ((5, 2, 40), (6, 3, 40), (6, 3, 20)):
        argv = ["nakaoka", "--n", str(n), "--max-degree", str(degree)]
        yield argv + ["--max-generators", str(budget)]


def test_nakaoka_output_is_pinned(capture):
    # The hash of every answer and error as the Coxeter-generator scheme gave them.
    digest = hashlib.sha256()
    for argv in _nakaoka_argvs():
        code, out = capture(*argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out}".encode())
    assert digest.hexdigest() == "72b765b5eb32c8a3dbbf95a348159435ffa143111dcbfafd5a8f27cfcaf74421"


# -- seeded fuzzing: every mutation is answered or rejected with the error JSON --

FUZZ_SEED = 8
MALFORMED = ["abc", "1.5", "-1", "0", "true", "nan", "[]"]
MALFORMED_JSON = ["abc", 1.5, -1, 0, True, float("nan"), []]  # the same values in JSON
FUZZ_ARGV = [
    ["homology", "inj", "--m", "3"],
    ["homology", "full", "--m", "2", "--max-degree", "2", "--max-basis", "50"],
    ["homology", "gp", "--p", "3", "--dim", "2", "--base", "[[1, 0]]", "--max-degree", "2"],
    ["homology", "gp", "--m", "3", "--base", "[1]"],
    ["gp-order", "inj", "--m", "3", "--max-n", "4"],
    ["gp-order", "--p", "2", "--dim", "2"],
    ["axioms", "vec", "--p", "2", "--dim", "2", "--samples", "5", "--seed", "1"],
    ["nakaoka", "--n", "3", "--max-degree", "1", "--max-generators", "100"],
    ["derangements", "--m", "4", "--format", "json"],
]
FUZZ_CHAINS = [
    (Chain.term(Alphabet.letters(3), (1, 2)).boundary(), None),
    (Chain.term(Alphabet.vectors(3, 2), ((0, 1), (1, 1))).boundary(), "[[1, 0]]"),
]


def _mutate_tokens(rng, tokens):
    tokens = list(tokens)
    i = rng.randrange(len(tokens))
    action = rng.choice(("drop", "duplicate", "retype"))
    if action == "drop":
        del tokens[i]
    elif action == "duplicate":
        tokens.insert(i, tokens[i])
    else:
        tokens[i] = rng.choice(MALFORMED)
    return tokens


def _mutate_json(rng, obj):
    """obj with one node dropped, duplicated (in a list) or replaced by a malformed value."""
    slots = []

    def walk(node):
        if isinstance(node, (dict, list)):
            for key in list(node) if isinstance(node, dict) else range(len(node)):
                slots.append((node, key))
                walk(node[key])

    walk(obj)
    node, key = rng.choice(slots)
    action = rng.choice(("drop", "duplicate", "retype") if isinstance(node, list) else ("drop", "retype"))
    if action == "drop":
        del node[key]
    elif action == "duplicate":
        node.insert(key, node[key])
    else:
        node[key] = rng.choice(MALFORMED_JSON)
    return obj


def _assert_answered_or_rejected(code, out):
    assert code in (0, 2, 3)
    if code:
        assert set(json.loads(out)) == {"error"}


def test_fuzzed_arguments_are_answered_or_rejected(capture):
    rng = random.Random(FUZZ_SEED)
    for _ in range(250):
        argv = _mutate_tokens(rng, rng.choice(FUZZ_ARGV))
        code, out = capture(*argv, "--time-budget", "2")
        _assert_answered_or_rejected(code, out)


def test_fuzzed_chains_and_bases_are_answered_or_rejected(capture, monkeypatch):
    rng = random.Random(FUZZ_SEED)
    for _ in range(150):
        cycle, base = rng.choice(FUZZ_CHAINS)
        raw = json.dumps(_mutate_json(rng, cycle.to_json()))
        argv = ["fill", "--input", "-", "--check", "--time-budget", "2"]
        if base is not None and rng.random() < 0.5:
            base = json.dumps(_mutate_json(rng, json.loads(base)))
        if base is not None:
            argv += ["--base", base]
        monkeypatch.setattr("sys.stdin", io.StringIO(raw))
        code, out = capture(*argv)
        _assert_answered_or_rejected(code, out)
        if code == 0:
            assert Chain.from_json(json.loads(out)["input"]) == Chain.parse(raw)
