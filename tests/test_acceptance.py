"""Acceptance gate: twelve quantitative criteria, one summary line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print; each criterion also asserts, so a FAIL line fails the suite.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from heckelab import cli
from heckelab.axioms import check_mod2, check_sf, check_sp
from heckelab.congruence import closure, sl2_order, subgroup_order
from heckelab.errors import NotElliptic
from heckelab.galois import (
    certify_goursat_pair,
    certify_mod_p_image,
    count_points,
    excludes_class,
    frobenius_sample,
    lifting_check,
    parse_curve,
    standard_lifts,
)
from heckelab.hecke import double_coset_reps, is_squarefree, modular_polynomial, psi, verify_disjoint
from heckelab.jfunction import QSeriesContext, j
from heckelab.moebius import (
    CMPoint,
    ElementKind,
    NumericPoint,
    RatMatrix,
    classify,
    fixed_point,
    special_witness,
    squarefree_decompose,
)
from heckelab.typecount import type_count_report

CTX = QSeriesContext(prec_bits=192)
E_11A3 = parse_curve("[0,-1,1,0,0]")
E_37A1 = parse_curve("[0,0,1,-1,0]")


def _line(k, ok, started, limit, detail):
    took = time.perf_counter() - started
    print(f"criterion {k:2d}: {'PASS' if ok and took < limit else 'FAIL'} "
          f"({took:.2f}s < {limit}s) {detail}")
    assert ok, detail
    assert took < limit, f"criterion {k} exceeded {limit}s ({took:.2f}s)"


def test_criterion_01_special_point_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(1)
    exact = 0
    while exact < 200:
        d = -rng.randint(1, 50)
        if squarefree_decompose(-d)[1] != -d:
            continue
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        y = Fraction(rng.randint(1, 20), rng.randint(1, 20))
        tau = CMPoint(d, x, y)
        if fixed_point(special_witness(tau)) == tau:
            exact += 1
        else:
            break
    errored = 0
    while errored < 200:
        vals = [rng.randint(-9, 9) for _ in range(4)]
        if vals[0] * vals[3] - vals[1] * vals[2] <= 0:
            continue
        g = RatMatrix(*vals)
        if classify(g).kind not in (ElementKind.PARABOLIC,
                                    ElementKind.HYPERBOLIC):
            continue
        with pytest.raises(NotElliptic):
            fixed_point(g)
        errored += 1
    _line(1, exact == 200 and errored == 200, t0, 5,
          f"{exact} exact round trips, {errored} non-elliptic rejections")


def test_criterion_02_group_order_law():
    t0 = time.perf_counter()
    S, T = (0, -1, 1, 0), (1, 1, 0, 1)
    bad = [n for n in range(2, 31) if len(closure([S, T], n)) != sl2_order(n)]
    _line(2, not bad, t0, 60, f"closure of S, T matches N^3 prod(1-1/p^2), "
          f"N=2..30, mismatches: {bad}")


def test_criterion_03_hecke_coset_law():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 51):
        if not is_squarefree(n):
            continue
        dec = double_coset_reps(n)
        assert len(dec.reps) == psi(n)
        assert verify_disjoint(dec.reps)
        checked += 1
    _line(3, True, t0, 10, f"{checked} squarefree n with |reps| = psi(n), "
          "pairwise disjoint")


def test_criterion_04_phi2_reconstruction():
    t0 = time.perf_counter()
    phi = modular_polynomial(2)
    ok = phi.is_symmetric() and phi.coefficient(2, 2) == -1
    ok = ok and all(isinstance(c, int) for c in phi.coeffs.values())
    rng = random.Random(4)
    worst = 0.0
    for _ in range(20):
        tau = NumericPoint(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 1.8), 192)
        x = j(tau, CTX).value
        y = j(NumericPoint(tau.re * 2, tau.im * 2, 192), CTX).value
        worst = max(worst, phi.residual(x, y))
    j2i = j(NumericPoint(0.0, 2.0, 192), CTX).value
    ram = phi.residual(1728, j2i)
    _line(4, ok and worst < 1e-6 and ram < 1e-6, t0, 30,
          f"symmetric, c(2,2)=-1, worst residual {worst:.2e}, "
          f"Phi2(1728, j(2i)) residual {ram:.2e}")


def test_criterion_05_mod2_fiber_match():
    t0 = time.perf_counter()
    rng = random.Random(5)
    worst = 0.0
    passed = 0
    for _ in range(10):
        x0 = complex(rng.uniform(-1000, 3000), rng.uniform(-500, 500))
        rep = check_mod2(2, x0, tol=1e-4, ctx=CTX)
        worst = max(worst, rep.max_residual)
        passed += rep.verdict == "pass"
    _line(5, passed == 10, t0, 30,
          f"{passed}/10 seeded fibers matched, worst distance {worst:.2e}")


def test_criterion_06_sp_instances():
    t0 = time.perf_counter()
    at_i = check_sp(CMPoint(-1, 0, 1), tol=1e-8, ctx=CTX)
    at_zeta = check_sp(CMPoint(-3, Fraction(1, 2), Fraction(1, 2)),
                       tol=1e-8, ctx=CTX)
    zi = at_i.witnesses[0]["z_x"]
    zz = at_zeta.witnesses[0]["z_x"]
    ok = (at_i.verdict == "pass" and at_zeta.verdict == "pass"
          and abs(complex(*zi) - 1728) < 1e-8 and abs(complex(*zz)) < 1e-8
          and at_i.witnesses[0]["witness_matrix"] == "[[0,-1],[1,0]]")
    _line(6, ok, t0, 5, f"j(i)={zi[0]:.10f}, j(zeta)={zz[0]:.2e}, "
          "witnesses recorded")


def test_criterion_07_sf_transitivity():
    t0 = time.perf_counter()
    bad = [n for n in range(2, 13) if check_sf(n).verdict != "pass"]
    _line(7, not bad, t0, 30, f"single orbit at N=2..12, failures: {bad}")


def test_criterion_08_image_dichotomy():
    t0 = time.perf_counter()
    c5 = certify_mod_p_image(E_11A3, 5, 1000)
    pattern = all((a - 1 - ell) % 5 == 0
                  for ell, a in frobenius_sample(E_11A3, 1000).samples
                  if ell != 5)
    c7 = certify_mod_p_image(E_11A3, 7, 1000)
    revalidated = all(
        excludes_class(cls, count_points(E_11A3, w["ell"]), w["ell"], 7)
        for cls, w in c7.witnesses.items())
    ok = (c5.verdict == "ContainedInBorel" and pattern
          and c7.verdict == "Surjective" and len(c7.witnesses) == 4
          and revalidated)
    _line(8, ok, t0, 60, f"mod 5 {c5.verdict} (a_ell=1+ell everywhere), "
          f"mod 7 {c7.verdict}, witnesses re-validated")


def test_criterion_09_goursat_pair():
    t0 = time.perf_counter()
    full = certify_goursat_pair(E_11A3, E_37A1, 7, 1000)
    sep = full.witness and full.witness["ell"] <= 1000 and (
        full.witness["a1_mod_p"] not in
        (full.witness["a2_mod_p"], (-full.witness["a2_mod_p"]) % 7))
    diag = certify_goursat_pair(E_37A1, E_37A1, 7, 1000)
    ok = (full.verdict == "FullProduct" and bool(sep)
          and diag.verdict == "GraphPossible")
    _line(9, ok, t0, 60, f"pair {full.verdict} with ell={full.witness['ell']}, "
          f"diagonal {diag.verdict}")


def test_criterion_10_lifting():
    t0 = time.perf_counter()
    good = lifting_check(5, standard_lifts(5))
    kernel = lifting_check(5, [(6, 0, 0, 21), (1, 5, 0, 1), (1, 0, 5, 1)])
    ok = (good.order == 15000 and good.full
          and not kernel.full and not kernel.generates_mod_p)
    _line(10, ok, t0, 30, f"standard lifts reach order {good.order}, "
          f"kernel-only generators stall at {kernel.order}")


def test_criterion_11_type_counting():
    t0 = time.perf_counter()
    elements = sorted(closure([(0, -1, 1, 0), (1, 1, 0, 1)], 5))
    rng = random.Random(11)
    gen_sets = [rng.sample(elements, rng.choice((1, 2))) for _ in range(20)]
    law = all(sl2_order(5) // subgroup_order(gens, 5)
              == 120 // len(closure(gens, 5)) for gens in gen_sets)
    bound = type_count_report(E_11A3, 5).to_dict()["lower_bound"]
    _line(11, law and bound == 6, t0, 30,
          f"chain index = listed index on 20 random subgroups, "
          f"reported lower bound {bound}")


def test_criterion_12_cli_determinism(capsys):
    t0 = time.perf_counter()
    outs = []
    for _ in range(2):
        cli.main(["axiom", "mod1", "--n", "2", "--trials", "5", "--seed", "7"])
        outs.append(capsys.readouterr().out)
    rerun_same = outs[0] == outs[1]
    outs = []
    for t in ("1", "4"):
        cli.main(["image", "[0,-1,1,0,0]", "--p", "7", "--upto", "1000",
                  "--threads", t])
        outs.append(capsys.readouterr().out)
    threads_same = outs[0] == outs[1]
    outs = []
    for t in ("1", "3"):
        cli.main(["frobenius", "[0,0,1,-1,0]", "--upto", "300",
                  "--threads", t])
        outs.append(capsys.readouterr().out)
    threads_same = threads_same and outs[0] == outs[1]
    with capsys.disabled():
        _line(12, rerun_same and threads_same, t0, 30,
              "byte-identical JSON across reruns and thread counts")
