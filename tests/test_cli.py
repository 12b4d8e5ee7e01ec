import json

import pytest

from heckelab import cli, galois
from heckelab.errors import OrderAmbiguous


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_special_point_witness(capsys):
    code, doc = run(capsys, ["special", "point", "--D", "-1", "--x", "0",
                             "--y", "1"])
    assert code == 0
    assert doc["report"]["witness"] == [[0, -1], [1, 0]]
    assert doc["report"]["round_trip_exact"] is True
    assert doc["config"]["params"]["D"] == -1


def test_special_matrix_classification(capsys):
    code, doc = run(capsys, ["special", "matrix", "--m", "[[0,-1],[1,0]]"])
    assert code == 0
    assert doc["report"]["classification"] == "elliptic"
    assert doc["report"]["fixed_point"] == {"D": -1, "x": "0", "y": "1"}
    code, doc = run(capsys, ["special", "matrix", "--m", "[[2,0],[0,1]]"])
    assert code == 0
    assert doc["report"]["classification"] == "hyperbolic"
    assert doc["report"]["fixed_point"] is None


def test_hecke_cosets(capsys):
    code, doc = run(capsys, ["hecke-cosets", "2"])
    assert code == 0
    assert doc["report"]["count"] == 3
    assert len(doc["report"]["reps"]) == 3


def test_hecke_cosets_rejects_non_squarefree(capsys):
    assert cli.main(["hecke-cosets", "4"]) == 2
    assert "error" in capsys.readouterr().err


def test_modpoly_cached(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HECKE_LAB_CACHE", str(tmp_path))
    code, doc = run(capsys, ["modpoly", "2"])
    assert code == 0
    assert doc["report"]["symmetric"] is True
    assert [2, 2, -1] in doc["report"]["coefficients"]
    assert (tmp_path / "modpoly_2.txt").exists()
    code2, doc2 = run(capsys, ["modpoly", "2"])
    assert doc2 == doc


def test_j_command(capsys):
    code, doc = run(capsys, ["j", "0.0+1.0i"])
    assert code == 0
    assert abs(doc["report"]["value"][0] - 1728.0) < 1e-8
    assert doc["report"]["abs_err"] < 1e-8


def test_j_rejects_lower_half_plane(capsys):
    assert cli.main(["j", "0.5-2.0i"]) == 2


def test_axiom_mod1(capsys):
    code, doc = run(capsys, ["axiom", "mod1", "--n", "2", "--trials", "6"])
    assert code == 0
    assert doc["report"]["verdict"] == "pass"
    assert doc["report"]["seed"] == 0


def test_axiom_mod2(capsys):
    code, doc = run(capsys, ["axiom", "mod2", "--n", "2", "--X0", "1728"])
    assert code == 0
    assert doc["report"]["trials"] == 3


def test_axiom_sp(capsys):
    code, doc = run(capsys, ["axiom", "sp", "--D", "-3", "--x", "1/2",
                             "--y", "1/2"])
    assert code == 0
    assert abs(doc["report"]["witnesses"][0]["z_x"][0]) < 1e-8


def test_axiom_sf(capsys):
    code, doc = run(capsys, ["axiom", "sf", "--N", "5"])
    assert code == 0
    assert doc["report"]["trials"] == 120
    assert cli.main(["axiom", "sf", "--N", "13"]) == 2


def test_frobenius(capsys):
    code, doc = run(capsys, ["frobenius", "[0,0,1,-1,0]", "--upto", "100"])
    assert code == 0
    ells = [ell for ell, _ in doc["report"]["samples"]]
    assert 37 not in ells and 2 in ells


def test_image_borel_example(capsys):
    code, doc = run(capsys, ["image", "[0,-1,1,0,0]", "--p", "5",
                             "--upto", "1000"])
    assert code == 0
    assert doc["report"]["verdict"] == "ContainedInBorel"


def test_image_inconclusive_exit(capsys):
    assert cli.main(["image", "[0,-1,1,0,0]", "--p", "11",
                     "--upto", "1000"]) == 3


def test_image_usage_error(capsys):
    assert cli.main(["image", "[0,-1,1,0,0]", "--p", "6",
                     "--upto", "1000"]) == 2


def test_goursat(capsys):
    code, doc = run(capsys, ["goursat", "[0,-1,1,0,0]", "[0,0,1,-1,0]",
                             "--p", "7"])
    assert code == 0
    assert doc["report"]["verdict"] == "FullProduct"


def test_lifting_default_and_kernel(capsys):
    code, doc = run(capsys, ["lifting", "--p", "5"])
    assert code == 0
    assert doc["report"]["order"] == 15000
    kernel = json.dumps([[[6, 0], [0, 21]], [[1, 5], [0, 1]], [[1, 0], [5, 1]]])
    code, doc = run(capsys, ["lifting", "--p", "5", "--gens", kernel])
    assert code == 1
    assert doc["report"]["full"] is False


def test_types_curve_and_explicit(capsys):
    code, doc = run(capsys, ["types", "--curve", "[0,-1,1,0,0]",
                             "--level", "5"])
    assert code == 0
    assert doc["report"]["lower_bound"] == 6
    gens = json.dumps([[[1, 1], [0, 1]], [[0, -1], [1, 0]]])
    code, doc = run(capsys, ["types", "--gens", gens, "--level", "5"])
    assert code == 0
    assert doc["report"]["index"] == 1


def test_types_insufficient_evidence(capsys):
    assert cli.main(["types", "--curve", "[0,-1,1,0,0]",
                     "--level", "11"]) == 3


def test_types_flag_conflicts(capsys):
    gens = json.dumps([[[1, 1], [0, 1]]])
    assert cli.main(["types", "--curve", "[0,-1,1,0,0]", "--gens", gens,
                     "--level", "5"]) == 2
    assert cli.main(["types", "--level", "5"]) == 2


def test_usage_exit_from_argparse():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["image", "[0,-1,1,0,0]"])  # missing --p
    assert exc.value.code == 2


def test_threads_below_one_is_usage_error(capsys):
    for t in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobenius", "[0,0,1,-1,0]", "--upto", "100",
                      "--threads", t])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--threads" in captured.err


def test_order_ambiguity_is_inconclusive(monkeypatch, capsys):
    def ambiguous(curve, ell):
        raise OrderAmbiguous(f"order ambiguity persisted at {ell}")

    monkeypatch.setattr(galois, "_count_bsgs", ambiguous)
    galois._a_ell.cache_clear()
    code = cli.main(["frobenius", "[0,0,0,-2,3]",
                     "--upto", str(galois.BSGS_CUTOFF + 100)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "inconclusive: order ambiguity" in captured.err


def test_output_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = cli.main(["hecke-cosets", "6", "--output", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert path.read_text() == out


def test_byte_identical_across_runs(capsys):
    first = []
    for _ in range(2):
        cli.main(["axiom", "mod1", "--n", "2", "--trials", "5", "--seed", "9"])
        first.append(capsys.readouterr().out)
    assert first[0] == first[1]


def test_byte_identical_across_thread_counts(capsys):
    outs = []
    for t in ("1", "4"):
        cli.main(["image", "[0,0,1,-1,0]", "--p", "5", "--upto", "1000",
                  "--threads", t])
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    outs = []
    for t in ("1", "3"):
        cli.main(["frobenius", "[0,-1,1,0,0]", "--upto", "200",
                  "--threads", t])
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
