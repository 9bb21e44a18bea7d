import hashlib
import json

import pytest

from circulant import cyclotomic
from circulant.cli import build_parser, main
from circulant.scheme import DEFAULT_AUT_MAX_N, DEFAULT_NODE_BUDGET


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_schurity_verb(capsys):
    code, out, _ = run_cli(
        capsys, "schurity", "--n", "8",
        "--ring", '{"basic_sets":[[0],[1,3],[2,6],[4],[5,7]]}')
    assert code == 0
    data = json.loads(out)
    assert data["schurian"] is True
    assert data["aut_order"] == "16"
    assert isinstance(data["aut_order"], str)
    assert data["stabilizer_orbits"][0] == [0]


def test_validate_verb_errors(capsys):
    code, out, err = run_cli(
        capsys, "validate", "--n", "4", "--ring", '{"basic_sets":[[0],[1],[2,3]]}')
    assert code == 1
    assert "inverse-closed" in json.loads(err)["error"]


def test_malformed_json(capsys):
    code, out, err = run_cli(capsys, "validate", "--n", "4", "--ring", "{oops")
    assert code == 1
    assert "position" in json.loads(err)["error"]


def test_budget_exit_code(capsys):
    ring = json.dumps({"basic_sets": [[0], list(range(1, 5001))]})
    code, out, err = run_cli(capsys, "schurity", "--n", "5001", "--ring", ring)
    assert code == 2
    assert out == ""
    assert set(json.loads(err)) == {"budget_error"}
    # below aut_group's max_n the schurity verb answers
    ring = json.dumps({"basic_sets": [[0], list(range(1, 1100))]})
    code, out, _ = run_cli(capsys, "schurity", "--n", "1100", "--ring", ring)
    assert code == 0
    assert json.loads(out)["schurian"] is True


@pytest.mark.parametrize("argv", [
    ["aut"], ["schurity"], ["nonschurity", "--u", "3", "--l", "3"], ["resolve"],
    ["sweep", "--ns", "4"], ["example12"],
], ids=lambda argv: argv[0])
def test_search_verbs_share_the_default_bounds(argv):
    args = build_parser().parse_args(argv)
    assert (args.max_n, args.max_nodes) == (DEFAULT_AUT_MAX_N, DEFAULT_NODE_BUDGET)


def test_search_budget_error_goes_to_stderr(capsys):
    ring = json.dumps({"basic_sets": [list(c) for c in cyclotomic(35, (2,)).cells]})
    code, out, err = run_cli(capsys, "aut", "--n", "35", "--ring", ring, "--max-nodes", "1")
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"budget_error": (
        "automorphism search budget exhausted after 2 nodes, at level 2 of "
        "base length 4, automorphisms found: 1")}


def test_construct_and_analyze(capsys):
    code, out, _ = run_cli(capsys, "construct", "--kind", "cyclotomic",
                           "--n", "8", "--gens", "3")
    assert code == 0
    ring = json.loads(out)["ring"]
    assert ring["basic_sets"] == [[0], [1, 3], [2, 6], [4], [5, 7]]
    code, out, _ = run_cli(capsys, "analyze", "--ring", json.dumps(ring))
    assert code == 0
    data = json.loads(out)
    assert data["radical_order"] == 1 and data["dense"] is True


def test_construct_gwp(capsys):
    left = '{"n":3,"basic_sets":[[0],[1,2]]}'
    code, out, _ = run_cli(capsys, "construct", "--kind", "gwp", "--n", "9",
                           "--u", "3", "--l", "3", "--left", left, "--right", left)
    assert code == 0
    assert json.loads(out)["ring"]["basic_sets"] == [[0], [1, 2, 4, 5, 7, 8], [3, 6]]


def test_enumerate_verb(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "9")
    assert code == 0
    rings = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rings) == 7
    assert any(r["basic_sets"] == [[0], [1, 2, 4, 5, 7, 8], [3, 6]] for r in rings)


def test_sweep_verb(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--ns", "4,9")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert reports[0]["total"] == 3 and reports[0]["schurian"] == 3


def test_resolve_verb(capsys):
    code, out, _ = run_cli(capsys, "resolve", "--n", "9",
                           "--ring", '{"basic_sets":[[0],[3,6],[1,2,4,5,7,8]]}')
    assert code == 0
    data = json.loads(out)
    assert data["two_equivalent_to_aut"] is True
    assert data["order"] == "1296"


def test_nonschurity_verb(capsys):
    code, out, _ = run_cli(capsys, "nonschurity", "--n", "9", "--u", "3", "--l", "3",
                           "--ring", '{"basic_sets":[[0],[3,6],[1,2,4,5,7,8]]}')
    assert code == 0
    assert json.loads(out)["nonschurian_certificate"] is False


def test_determinism(capsys):
    args = ["analyze", "--n", "12", "--ring",
            '{"basic_sets":[[0],[1,5,7,11],[2,10],[3,9],[4,8],[6]]}']
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_modulus_mismatch(capsys):
    code, _, err = run_cli(capsys, "schurity", "--n", "5",
                           "--ring", '{"n":4,"basic_sets":[[0],[1,3],[2]]}')
    assert code == 1
    assert "mismatch" in json.loads(err)["error"]


Z3 = '{"n":3,"basic_sets":[[0],[1,2]]}'
Z8_RING = '{"basic_sets":[[0],[1,3],[2,6],[4],[5,7]]}'
Z9_RING = '{"basic_sets":[[0],[3,6],[1,2,4,5,7,8]]}'
# what the error of a malformed-input case must say, by case id: a string
# modulus is shown as its repr, so that it is told apart from the flag's,
# and a d below 1 is named before any test of what d divides
ERROR_FRAGMENTS = {"string-n": "JSON says '4', flag says 4",
                   "example12-d-0": "d=0 must be a positive integer",
                   "example12-d-negative": "d=-4 must be a positive integer",
                   "example12-equal-phi": "argument --phi: not allowed with argument --equal",
                   "sweep-jobs-0": "--jobs must be a positive integer, got 0",
                   "sweep-jobs-negative": "--jobs must be a positive integer, got -2"}


@pytest.mark.parametrize("argv", [
    ["validate", "--n", "3", "--ring", "[1]"],
    ["validate", "--n", "3", "--ring", '{"cells":[[0],[1,2]]}'],
    ["validate", "--n", "3", "--ring", '{"basic_sets":[[0],["a"]]}'],
    ["construct", "--kind", "tensor", "--n", "6", "--left", "{bad", "--right", Z3],
    ["construct", "--kind", "gwp", "--n", "9", "--u", "3", "--left", Z3, "--right", Z3],
    ["sweep", "--ns", "8,x"],
    ["example12", "--phi", "3"],
    ["validate", "--in", "no-such-ring.json"],
    ["validate", "--ring", '{"n": true, "basic_sets": [[0]]}'],
    ["validate", "--ring", '{"n":4,"basic_sets":[[0],[1,3],[2],[]]}'],
    ["validate", "--n", "4", "--ring", '{"basic_sets":[]}'],
    ["example12", "--equal", "--d", "5"],
    ["example12", "--equal", "--p4", "2"],
    ["validate", "--n", "4", "--ring", '{"n":"4","basic_sets":[[0],[1,3],[2]]}'],
    ["example12", "--d", "0"],
    ["example12", "--d", "-4"],
    ["example12", "--equal", "--phi", "5,8"],
    ["sweep", "--ns", "10", "--jobs", "0"],
    ["sweep", "--ns", "10", "--jobs", "-2"],
], ids=["not-an-object", "no-basic-sets", "non-integer-cell", "tensor-bad-json",
        "gwp-without-l", "sweep-bad-ns", "example12-one-phi", "missing-file", "boolean-n",
        "empty-cell", "no-cells", "example12-equal-d-5", "example12-equal-p4-2", "string-n",
        "example12-d-0", "example12-d-negative", "example12-equal-phi", "sweep-jobs-0",
        "sweep-jobs-negative"])
def test_malformed_input_is_a_domain_error(capsys, tmp_path, monkeypatch, request, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert set(json.loads(err)) == {"error"}
    assert ERROR_FRAGMENTS.get(request.node.callspec.id, "") in json.loads(err)["error"]


@pytest.mark.parametrize("argv", [
    ["validate", "--n", "x", "--ring", '{"basic_sets":[[0]]}'],
    ["construct", "--n", "3"],
    ["validate", "--n", "4", "--ring", '{"basic_sets":[[0],[1,3],[2]]}', "--bogus"],
], ids=["non-integer-n", "missing-required-flag", "unknown-flag"])
def test_usage_error_is_a_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert set(json.loads(err)) == {"error"}


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--help"])
    assert exc.value.code == 0
    assert "usage: circulant validate" in capsys.readouterr().out


# sha256 prefixes of the stdout of the README's CLI examples, in README
# order with an `aut` call second; `sweep` runs with --jobs 1 and, as in the
# README, with --jobs 2 (two worker processes), and both print the same
PINNED_OUTPUT = [
    (["schurity", "--n", "8", "--ring", Z8_RING], "3d2b7f7c7a1291ad"),
    (["aut", "--n", "8", "--ring", Z8_RING], "e8b7ecb2f50f2164"),
    (["analyze", "--n", "9", "--ring", Z9_RING], "0e09d36c038b7355"),
    (["construct", "--kind", "gwp", "--n", "9", "--u", "3", "--l", "3",
      "--left", Z3, "--right", Z3], "07f2bcdd79ed1b46"),
    (["enumerate", "--n", "16"], "823771c3d3ef68c8"),
    (["sweep", "--ns", "16,24,36", "--jobs", "1"], "f89305a58f8609d2"),
    (["sweep", "--ns", "16,24,36", "--jobs", "2"], "f89305a58f8609d2"),
    (["resolve", "--n", "9", "--ring", Z9_RING], "433685bd9aff8d60"),
    (["nonschurity", "--n", "9", "--u", "3", "--l", "3", "--ring", Z9_RING],
     "1ff51b2d94db9ab5"),
    (["example12", "--p", "5", "--p3", "11", "--p4", "13", "--d", "4"],
     "40d2ce643e018fc8"),
    (["example12", "--equal"], "382348b6b8295e27"),
]


def _pinned_id(argv, digest):
    jobs = argv[argv.index("--jobs") + 1] if "--jobs" in argv else "1"
    return f"{argv[0]}-{digest}" + ("" if jobs == "1" else f"-jobs{jobs}")


@pytest.mark.parametrize("argv,digest", PINNED_OUTPUT,
                         ids=[_pinned_id(argv, digest) for argv, digest in PINNED_OUTPUT])
def test_readme_examples_print_pinned_output(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest
