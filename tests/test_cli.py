import json
import subprocess
import sys

import pytest

from wordhom import Alphabet, Chain
from wordhom.cli import run


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


def test_fill_rejects_malformed_json(tmp_path, capture):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, out = capture("fill", "--input", str(path))
    assert code == 2


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


def test_fill_rejects_base_not_in_general_position(tmp_path, capture):
    alphabet = Alphabet.vectors(5, 2)
    path = tmp_path / "point.json"
    path.write_text(Chain.term(alphabet, ((0, 1),)).boundary().serialize())
    code, out = capture("fill", "--input", str(path), "--base", "[[1, 0], [2, 0]]")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "precondition-violated"


@pytest.mark.parametrize(
    "flags,base",
    [(("--p", "5", "--dim", "2"), "[[1, 0], [2, 0]]"), (("--m", "4"), "[2, 2]")],
)
def test_homology_gp_rejects_base_not_in_general_position(capture, flags, base):
    code, out = capture("homology", "gp", *flags, "--base", base)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "precondition-violated"


def test_nakaoka_table_text(capture):
    code, out = capture("nakaoka", "--n", "3", "--max-degree", "1")
    assert code == 0
    assert "H_m(S_2) = Z/2, H_m(S_3) = Z/2" in out
    assert "equal: yes" in out


def test_nakaoka_resource_limit(capture):
    code, out = capture("nakaoka", "--n", "5", "--max-degree", "2")
    assert code == 3
    assert json.loads(out)["error"]["code"] == "resource-limit"


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


def test_resource_limit_from_env(tmp_path, capture, monkeypatch):
    monkeypatch.setenv("WORDHOM_MAX_BASIS", "4")
    code, out = capture("homology", "full", "--m", "3", "--max-degree", "4", "--format", "json")
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


def test_time_budget_exits_resource_limit(capture):
    code, out = capture("nakaoka", "--n", "4", "--max-degree", "2", "--time-budget", "0.2")
    assert code == 3
    assert json.loads(out)["error"]["code"] == "resource-limit"


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "wordhom", "derangements", "--m", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "derangements(3) = 2" in proc.stdout
