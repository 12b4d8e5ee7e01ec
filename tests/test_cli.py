import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab import cli, galois, qexp
from heckelab.congruence import sl2_order
from heckelab.errors import OrderAmbiguous
from heckelab.hecke import psi


def _not_json(token):
    raise ValueError(f"{token} is not JSON")


def strict_loads(text):
    """json.loads that rejects the NaN and Infinity that Python writes."""
    return json.loads(text, parse_constant=_not_json)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, strict_loads(out) if out else None


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


def test_modpoly_ignores_a_cache_directory(tmp_path, monkeypatch, capsys):
    """Phi_n is always computed: a modpoly_<n>.txt in the directory that
    HECKE_LAB_CACHE names is neither read nor written."""
    from heckelab.hecke import modular_polynomial
    (tmp_path / "modpoly_2.txt").write_text(
        "MODPOLY 2 3 3\n0 3 1\n2 2 5\n3 0 1\n")
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    monkeypatch.setenv("HECKE_LAB_CACHE", str(tmp_path))
    code, doc = run(capsys, ["modpoly", "2"])
    assert code == 0
    assert doc["report"]["symmetric"] is True
    assert doc["report"]["coefficients"] == [
        [i, k, c] for (i, k), c in sorted(modular_polynomial(2).coeffs.items())]
    assert [2, 2, -1] in doc["report"]["coefficients"]
    assert run(capsys, ["modpoly", "3"])[0] == 0
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before


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


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_axiom_mod1_without_trials_is_usage_error(trials, capsys):
    assert cli.main(["axiom", "mod1", "--n", "2", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "trials must be at least 1" in captured.err


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _cli_process(argv, timeout=30):
    """The CLI run in a fresh process, killed after `timeout` seconds."""
    return subprocess.run([sys.executable, "-m", "heckelab.cli", *argv],
                          env=_src_env(), capture_output=True, text=True,
                          timeout=timeout)


def test_axiom_mod1_too_many_trials_exits_2_at_once():
    done = _cli_process(["axiom", "mod1", "--n", "2", "--trials",
                         "1000000000"])
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert "trials must be at most" in done.stderr


@pytest.mark.parametrize("argv", [
    ["axiom", "mod2", "--n", "6", "--X0", "5"],
    ["axiom", "mod1", "--n", "6"],
])
def test_axiom_beyond_the_psi_bound_exits_2_at_once(argv):
    # MOD2 would try all 12! pairings of the fiber at n = 6
    done = _cli_process(argv, timeout=10)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr == ("error: Phi_6 is not computed here: psi(6) = 12, "
                           "above 8\n")


def test_axiom_mod2(capsys):
    code, doc = run(capsys, ["axiom", "mod2", "--n", "2", "--X0", "1728"])
    assert code == 0
    assert doc["report"]["trials"] == 3


def test_axiom_mod2_images_at_zero_are_real(capsys):
    # Phi_2(0, Y) = (Y - 54000)^3, so the three images are real
    code, doc = run(capsys, ["axiom", "mod2", "--n", "2", "--X0=0"])
    assert code == 0
    images = [w["image"] for w in doc["report"]["witnesses"]]
    assert len(images) == 3
    for re, im in images:
        assert abs(re - 54000) < 1e-20 * 54000
        assert abs(im) < 1e-30


@pytest.mark.parametrize("n", ["2", "3"])
def test_axiom_mod1_residual_follows_the_precision(n, capsys):
    # n = 3 also needs n*tau formed at the working precision
    residual = {}
    for bits in ("128", "512"):
        code, doc = run(capsys, ["axiom", "mod1", "--n", n,
                                 "--precision-bits", bits])
        assert code == 0
        residual[bits] = doc["report"]["max_residual"]
    assert residual["512"] < 2.0 ** -256 * residual["128"]


def test_axiom_mod2_huge_X0_is_inconclusive(capsys):
    code, doc = run(capsys, ["axiom", "mod2", "--n", "2", "--X0=1e300"])
    assert code == 3
    assert doc["report"]["verdict"] == "inconclusive"
    assert doc["report"]["max_residual"] is None


@pytest.mark.parametrize("argv", [
    ["j", "0+1000i"],
    ["j", "0+0.002i"],
    ["axiom", "sp", "--D", "-1", "--x=0", "--y=1000"],
])
def test_report_that_overflows_a_double_is_usage_error(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflows a double" in captured.err


@pytest.mark.parametrize("argv", [
    ["axiom", "mod1", "--n", "2"],
    ["axiom", "mod1", "--n", "3"],
    ["axiom", "mod2", "--n", "2", "--X0=-100+3i"],
    ["axiom", "mod2", "--n", "3", "--X0=-100+3i"],
    ["j", "--", "0.3+0.02i"],
])
def test_cold_request_builds_the_j_series_once(argv, monkeypatch, capsys):
    builds = []
    real = qexp._qj_series
    monkeypatch.setattr(qexp, "_qj_table", [])
    monkeypatch.setattr(qexp, "_qj_series",
                        lambda n: builds.append(n) or real(n))
    for cached in (qexp.j_coefficients, qexp.j_power_coefficients):
        cached.cache_clear()
    assert cli.main(argv) == 0
    assert len(builds) == 1, builds


def test_cli_import_leaves_out_numpy():
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, heckelab.cli; print('numpy' in sys.modules)"],
        env=_src_env(), capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


# Every subcommand but `j` and `axiom mod1/mod2/sp` is exact integer work,
# and a fresh process running one of them never imports mpmath.
EXACT_ARGVS = [
    ["frobenius", "[0,0,1,-1,0]", "--upto", "100"],
    ["image", "[0,0,1,-1,0]", "--p", "5"],
    ["goursat", "[0,-1,1,0,0]", "[0,0,1,-1,0]", "--p", "7"],
    ["types", "--curve", "[0,0,1,-1,0]", "--level", "5"],
    ["types", "--gens", "[[[1,1],[0,1]],[[1,0],[1,1]]]", "--level", "6"],
    ["lifting", "--p", "5"],
    ["axiom", "sf", "--N", "6"],
    ["hecke-cosets", "6"],
    ["modpoly", "2"],
    ["special", "point", "--D", "-3", "--x", "1/2", "--y", "1/2"],
    ["special", "matrix", "--m", "[[0,-1],[1,0]]"],
]

# a bare import, then each argv, all in one fresh process; after each
# step, whether mpmath, dataclasses and inspect are loaded
FOOTPRINT = """
import contextlib, io, json, sys
from heckelab import cli
def loaded():
    return [m in sys.modules for m in ("mpmath", "dataclasses", "inspect")]
rows = [["import", None, loaded()]]
for argv in json.loads(sys.argv[1]) + [["j", "0.1+1.1i"]]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    rows.append([argv[0], code, loaded()])
print(json.dumps(rows))
"""


def test_only_the_numeric_commands_import_mpmath():
    done = subprocess.run([sys.executable, "-c", FOOTPRINT,
                           json.dumps(EXACT_ARGVS)],
                          env=_src_env(), capture_output=True, text=True,
                          timeout=60, check=True)
    (bare, *rows, last) = json.loads(done.stdout)
    assert bare == ["import", None, [False, False, False]]
    assert [code for _, code, _ in rows] == [0] * len(EXACT_ARGVS), done.stderr
    assert [mods for _, _, mods in rows] == [[False] * 3] * len(EXACT_ARGVS)
    # mpmath itself loads neither dataclasses nor inspect
    assert last == ["j", 0, [True, False, False]]


M127 = str(2 ** 127 - 1)  # a prime with no factor in reach of trial division


@pytest.mark.parametrize("argv", [
    ["modpoly", M127],
    ["axiom", "mod1", "--n", M127],
    ["axiom", "mod2", "--n", M127, "--X0", "5"],
    ["special", "point", "--D", "-" + M127, "--x", "0", "--y", "1"],
    ["axiom", "sp", "--D", "-" + M127, "--x", "0", "--y", "1"],
    ["special", "matrix", "--m", f"[[0,-{M127}],[1,0]]"],
])
def test_unfactorable_integer_exits_2(argv):
    done = _cli_process(argv)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert "FACTOR_LIMIT" in done.stderr


def test_axiom_sp(capsys):
    code, doc = run(capsys, ["axiom", "sp", "--D", "-3", "--x", "1/2",
                             "--y", "1/2"])
    assert code == 0
    assert abs(doc["report"]["witnesses"][0]["z_x"][0]) < 1e-8


def test_axiom_sf(capsys):
    code, doc = run(capsys, ["axiom", "sf", "--N", "5"])
    assert code == 0
    assert doc["report"]["trials"] == 120
    for N in (13, 30):
        code, doc = run(capsys, ["axiom", "sf", "--N", str(N)])
        assert code == 0 and doc["report"]["verdict"] == "pass"
        assert doc["report"]["trials"] == sl2_order(N)
    assert cli.main(["axiom", "sf", "--N", "31"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the level bound 30" in captured.err


@pytest.mark.parametrize("N", ["0", "-3"])
def test_axiom_sf_nonpositive_level_is_usage_error(N, capsys):
    assert cli.main(["axiom", "sf", "--N", N]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_frobenius(capsys):
    code, doc = run(capsys, ["frobenius", "[0,0,1,-1,0]", "--upto", "100"])
    assert code == 0
    ells = [ell for ell, _ in doc["report"]["samples"]]
    assert 37 not in ells and 2 in ells


RATIONAL_CURVE = "[1/2,0,-1/3,-3,1/4]"  # discriminant 12634285/6912


def _golden_stdout(command, params, report):
    doc = {"command": command,
           "config": {"output": None, "params": params, "precision_bits": 128,
                      "seed": 0, "tolerance": None},
           "report": report}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_rational_curve_golden_stdout(capsys):
    # recorded before the integral model replaced the (numerator,
    # denominator) reductions; 2, 3 and 5 divide the discriminant
    samples = [[7, -1], [11, 5], [13, -1], [17, -4], [19, -4], [23, 0],
               [31, -8], [37, -4], [41, 9], [43, -2], [47, 12], [53, 5],
               [59, -1], [61, 0], [67, -11], [71, -1], [73, 4], [79, -2],
               [83, 8], [89, -15], [97, 1]]
    assert cli.main(["frobenius", RATIONAL_CURVE, "--upto", "100"]) == 0
    assert capsys.readouterr().out == _golden_stdout(
        "frobenius", {"curve": RATIONAL_CURVE, "upto": 100},
        {"bound": 100, "curve": RATIONAL_CURVE, "samples": samples})
    assert cli.main(["image", RATIONAL_CURVE, "--p", "5",
                     "--upto", "1000"]) == 3
    assert capsys.readouterr().out == _golden_stdout(
        "image", {"curve": RATIONAL_CURVE, "p": 5, "upto": 1000},
        {"bound": 1000, "detail": {"reason": "p = 5 divides the discriminant"},
         "p": 5, "verdict": "Inconclusive", "witnesses": {}})


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


@pytest.mark.parametrize("p", [11, 13])
def test_lifting_at_larger_primes(p, capsys):
    code, doc = run(capsys, ["lifting", "--p", str(p)])
    assert code == 0
    assert doc["report"]["order"] == sl2_order(p * p)


def test_lifting_kernel_pattern_at_11(capsys):
    # I + 11*M for three independent trace-zero M
    kernel = json.dumps([[[12, 0], [0, 111]], [[1, 11], [0, 1]],
                         [[1, 0], [11, 1]]])
    code, doc = run(capsys, ["lifting", "--p", "11", "--gens", kernel])
    assert code == 1
    assert doc["report"] == {"p": 11, "order": 1331, "full": False,
                             "generates_mod_p": False}


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


@pytest.mark.parametrize("argv", [
    ["lifting", "--p", "5", "--gens", "[[1,2]]"],
    ["lifting", "--p", "5", "--gens", "[1,2,3]"],
    ["types", "--gens", "[[1,2]]", "--level", "6"],
    ["types", "--gens", "[[[1,2],[3,4.5]]]", "--level", "6"],
    ["types", "--gens", "[[[2,0],[0,1]]]", "--level", "6"],
])
def test_malformed_gens_are_usage_errors(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_types_gens_level_above_scan_bound(capsys):
    argv = ["types", "--gens", "[[[1,1],[0,1]]]", "--level", "31"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the level bound 30" in captured.err


@pytest.mark.parametrize("n", [4, 12])
def test_modpoly_not_squarefree_says_so(n, capsys):
    assert cli.main(["modpoly", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: n={n} is not squarefree\n"


@pytest.mark.parametrize("n", [5, 7])
def test_modpoly_5_and_7(n, capsys):
    code, doc = run(capsys, ["modpoly", str(n)])
    assert code == 0
    rep = doc["report"]
    assert rep["degX"] == rep["degY"] == n + 1
    assert rep["symmetric"] is True
    assert [n + 1, 0, 1] in rep["coefficients"]


@pytest.mark.parametrize("n", [6, 10, 11])
def test_modpoly_beyond_the_psi_bound_says_so(n, capsys):
    assert cli.main(["modpoly", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: Phi_{n} is not computed here: "
                            f"psi({n}) = {psi(n)}, above 8\n")


@pytest.mark.parametrize("level", ["0", "4"])
@pytest.mark.parametrize("curves", [1, 2])
def test_types_curve_names_the_level(level, curves, capsys):
    argv = ["types", "--level", level]
    for c in _CURVES[:curves]:
        argv += ["--curve", c]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --level must be in (5, 7, 11, 13) with "
                            f"--curve, got {level}\n")


@pytest.mark.parametrize("argv, n", [
    (["modpoly", "0"], 0),
    (["modpoly", "-1"], -1),
    (["axiom", "mod1", "--n", "-1"], -1),
    (["axiom", "mod2", "--n", "0", "--X0", "5"], 0),
])
def test_nonpositive_n_says_so(argv, n, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: n must be positive, got {n}\n"


def test_types_and_lifting_never_close_at_the_full_level(monkeypatch,
                                                        capsys):
    from heckelab import axioms, congruence
    moduli = []
    real = congruence.closure

    def spy(gens, N):
        moduli.append(N)
        return real(gens, N)
    for module in (congruence, galois, axioms):
        monkeypatch.setattr(module, "closure", spy, raising=False)
    code, doc = run(capsys, ["types", "--gens",
                             "[[[1,1],[0,1]],[[1,0],[1,1]]]", "--level", "30"])
    assert code == 0 and doc["report"]["index"] == 1
    code, doc = run(capsys, ["lifting", "--p", "13"])
    assert code == 0 and doc["report"]["order"] == sl2_order(169)
    code, doc = run(capsys, ["axiom", "sf", "--N", "12"])
    assert code == 0 and doc["report"]["verdict"] == "pass"
    assert doc["report"]["trials"] == 1152
    assert moduli == []
    # positive control: Subgroup.generated closes through the same spy
    congruence.Subgroup.generated(6, [(0, -1, 1, 0), (1, 1, 0, 1)])
    assert moduli == [6]


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


@pytest.mark.parametrize("argv", [
    ["axiom", "mod1", "--n", "2", "--trials", "2", "--tolerance", "nan"],
    ["axiom", "mod1", "--n", "2", "--trials", "2", "--tolerance", "-1"],
    ["axiom", "mod1", "--n", "2", "--trials", "2", "--tolerance", "0"],
    ["axiom", "mod1", "--n", "2", "--trials", "2", "--tolerance", "inf"],
    ["axiom", "mod1", "--n", "2", "--trials", "2", "--tolerance=-inf"],
    ["j", "0+1i", "--tolerance", "-1"],
])
def test_tolerance_must_be_finite_and_positive(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tolerance" in captured.err


@pytest.mark.parametrize("argv", [
    ["j", "0.1+nani"],
    ["j", "0.1+1e400i"],
    ["axiom", "mod2", "--n", "2", "--X0=nan"],
])
def test_non_finite_complex_is_usage_error(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err


@pytest.mark.parametrize("argv, escaped", [
    (["j", "-0.3+0.5i"], ["j", "--", "-0.3+0.5i"]),
    (["axiom", "mod2", "--n", "2", "--X0", "-100+3i"],
     ["axiom", "mod2", "--n", "2", "--X0=-100+3i"]),
])
def test_negative_complex_values(argv, escaped, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert (code, out) == (cli.main(escaped), capsys.readouterr().out)
    assert code == 0 and out


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


@pytest.mark.parametrize("argv", [
    ["special", "point", "--D", "-3", "--x", "0", "--y", "1/0"],
    ["axiom", "sp", "--D", "-3", "--x", "1/0", "--y", "1"],
    ["frobenius", "[1/0,0,0,1,1]", "--upto", "100"],
    ["image", "[0,0,0,1/0,1]", "--p", "5"],
    ["types", "--curve", "[0,0,0,1,1/0]", "--level", "5"],
    ["special", "matrix", "--m", "[[1/0,0],[0,1]]"],
])
def test_zero_denominator_is_usage_error(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # --x and --y are checked by argparse
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "1/0" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["frobenius", "[0,0,1,-1,0]"],
    ["image", "[0,0,1,-1,0]", "--p", "5"],
    ["goursat", "[0,0,1,-1,0]", "[0,-1,1,0,0]", "--p", "5"],
    ["types", "--curve", "[0,0,1,-1,0]", "--level", "5"],
])
def test_upto_beyond_bsgs_limit_is_usage_error_before_sieving(argv, capsys):
    # a sieve to 10^13 would need 10 TB: the bound is refused first
    assert cli.main(argv + ["--upto", "10000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: bound must be at most 10000000, "
                            "got 10000000000000\n")


def test_precision_bits_too_large_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["j", "0+1i", "--precision-bits", "99999999999999999999"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--precision-bits" in captured.err


def test_j_at_the_precision_cap_finishes():
    # the series lengthens with the precision, so the cap bounds the work
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    bits = str(cli.MAX_PRECISION_BITS)
    done = subprocess.run(
        [sys.executable, "-m", "heckelab.cli", "j", "0.1+1.1i",
         "--precision-bits", bits],
        env=env, capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    assert strict_loads(done.stdout)["report"]["abs_err"] < 1e-300
    with pytest.raises(SystemExit) as exc:
        cli.main(["j", "0.1+1.1i", "--precision-bits",
                  str(cli.MAX_PRECISION_BITS + 1)])
    assert exc.value.code == 2


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    for path in (tmp_path / "missing" / "x.json", tmp_path):
        assert cli.main(["modpoly", "2", "--output", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write --output {path}")
    assert not (tmp_path / "missing").exists()


# argv built from every subcommand path and its arguments.  Each value is
# a valid one for its slot or a token from a pool of mostly malformed ones;
# --upto and --trials are capped so that the valid requests stay cheap.
_CURVES = ["[0,-1,1,0,0]", "[0,0,1,-1,0]"]
_COMMANDS = {  # path: [(option, or None for a positional; valid values)]
    ("special", "point"): [("--D", ["-3", "-1"]), ("--x", ["0", "1/2"]),
                           ("--y", ["1", "1/2"])],
    ("special", "matrix"): [("--m", ["[[0,-1],[1,0]]", "[[2,1],[1,1]]"])],
    ("hecke-cosets",): [(None, ["2", "6"])],
    ("modpoly",): [(None, ["2", "3", "5", "7"])],
    ("j",): [(None, ["0+1i", "-0.3+0.5i"])],
    ("axiom", "mod1"): [("--n", ["2", "5"]), ("--trials", ["1", "2"])],
    ("axiom", "mod2"): [("--n", ["2", "5"]), ("--X0", ["1728", "-100+3i"])],
    ("axiom", "sp"): [("--D", ["-3", "-1"]), ("--x", ["0", "1/2"]),
                      ("--y", ["1", "1/2"])],
    ("axiom", "sf"): [("--N", ["5", "12"])],
    ("frobenius",): [(None, _CURVES), ("--upto", ["50", "100"])],
    ("image",): [(None, _CURVES), ("--p", ["5", "7"]), ("--upto", ["1000"])],
    ("goursat",): [(None, _CURVES), (None, _CURVES), ("--p", ["5", "7"]),
                   ("--upto", ["1000"])],
    ("lifting",): [("--p", ["5", "13"]),
                   ("--gens", ["[[[1,1],[0,1]],[[1,0],[1,1]]]"])],
    ("types",): [("--level", ["5", "30"]), ("--curve", _CURVES),
                 ("--gens", ["[[[1,1],[0,1]],[[1,0],[1,1]]]", "[]"]),
                 ("--upto", ["1000"])],
}
_COMMON = [("--seed", ["0", "7"]), ("--precision-bits", ["128"]),
           ("--tolerance", ["1e-6"]), ("--threads", ["1", "2"]),
           ("--output", [])]
_TOKENS = ["1/0", "0/0", "nan", "-inf", "1e400", "99999999999999999999",
           "-0.3+0.5i", "0.1+nani", "x", "", "[a]", "[]", "[1,2]",
           "[[[1.5,0],[0,1]]]", "[[[2,0],[0,1]]]", "[[1/0,0],[0,1]]",
           "[1/0,0,0,1,1]", "[0,0,0,1,1/0]", "[0,0,0,0,0]", "-3", "0", "30",
           "-" + M127, f"[[0,-{M127}],[1,0]]"]
_CAPPED = {"--upto": ["-5", "0", "1/0", "nan", "10000000000000"],
           "--trials": ["-1", "0", "x"],
           # one path under a missing directory, one that is a directory
           "--output": [os.path.join(os.path.dirname(__file__), "no-such-dir",
                                     "x.json"), os.path.dirname(__file__)]}


@st.composite
def _argv(draw):
    path = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = list(path)
    # every subcommand argument most of the time, a common flag rarely
    for slots, odds in ((_COMMANDS[path], 8), (_COMMON, 1)):
        for opt, valid in slots:
            if opt is not None and draw(st.integers(0, 9)) >= odds:
                continue
            bad = _CAPPED.get(opt, _TOKENS)
            value = draw(st.sampled_from(
                valid if valid and draw(st.booleans()) else bad))
            argv += [value] if opt is None else [opt, value]
    return argv


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_argv())
def test_cli_contract_holds_for_malformed_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    # any exception but argparse's SystemExit escapes and fails the test
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
            assert out.getvalue() == "", argv
    assert code in (0, 1, 2, 3), argv
    if out.getvalue():
        strict_loads(out.getvalue())  # one strict document, nothing after
