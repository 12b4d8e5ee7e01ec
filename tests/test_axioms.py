import json
from fractions import Fraction

import pytest

from heckelab import axioms, hecke
from heckelab.axioms import AxiomReport, check_mod1, check_mod2, check_sf, check_sp
from heckelab.congruence import sl2_order
from heckelab.errors import LevelTooLarge
from heckelab.hecke import ModularPolynomial, modular_polynomial, psi
from heckelab.jfunction import QSeriesContext, j
from heckelab.moebius import CMPoint, NumericPoint

CTX = QSeriesContext(prec_bits=192)


def test_mod1_n2_passes():
    rep = check_mod1(2, trials=20, seed=0, ctx=CTX)
    assert rep.verdict == "pass"
    assert rep.trials == 20
    assert rep.max_residual < 1e-6
    assert rep.witnesses == ()


def test_mod1_n1_exactly_zero():
    # Phi_1 = X - Y and j(1*tau) reuses the same evaluation, so the
    # residual is identically zero, not merely small.
    rep = check_mod1(1, trials=5, seed=3, ctx=CTX)
    assert rep.verdict == "pass"
    assert rep.max_residual == 0.0


def test_mod1_n3_passes():
    rep = check_mod1(3, trials=8, seed=1, ctx=CTX)
    assert rep.verdict == "pass"
    assert rep.max_residual < 1e-6


def test_warm_mod1_builds_phi_once(monkeypatch):
    builds = []
    real = hecke._power_sums

    def spy(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(hecke, "_power_sums", spy)
    modular_polynomial.cache_clear()
    for seed in range(20):
        assert check_mod1(3, trials=1, seed=seed, ctx=CTX).verdict == "pass"
    assert len(builds) == 1


def test_mod1_corrupted_phi_fails_with_witness():
    # Harness sanity: bump the leading coefficient by 1 and the checker
    # must notice.  The perturbation sits at the scale of the largest
    # monomial, so every sampled point reports an O(1) residual.
    phi = modular_polynomial(2)
    bad = dict(phi.coeffs)
    bad[(2, 2)] += 1
    rep = check_mod1(2, trials=20, seed=0, ctx=CTX,
                     phi=ModularPolynomial.from_map(2, bad))
    assert rep.verdict == "fail"
    assert rep.max_residual > 1e-3
    assert rep.witnesses
    w = rep.witnesses[0]
    assert set(w) == {"trial", "tau", "residual"}
    assert w["residual"] >= 1e-6
    assert 0.9 <= w["tau"][1] <= 2.0


@pytest.mark.parametrize("n", [5, 7])
def test_mod1_and_mod2_pass_at_5_and_7(n):
    rep = check_mod1(n, trials=4, seed=n, ctx=CTX)
    assert rep.verdict == "pass"
    assert rep.max_residual < 1e-40
    for x0 in (5000, 0, 1728, complex(-3200.5, 870.2)):
        rep = check_mod2(n, x0, ctx=CTX)
        assert rep.verdict == "pass", x0
        assert rep.trials == len(rep.witnesses) == psi(n)


def test_mod1_phi5_one_coefficient_off_fails():
    # X^5 Y^5 is at the scale of the largest monomial wherever |y| >> |x|
    bad = dict(modular_polynomial(5).coeffs)
    bad[(5, 5)] += 1
    rep = check_mod1(5, trials=6, seed=0, ctx=CTX,
                     phi=ModularPolynomial.from_map(5, bad))
    assert rep.verdict == "fail"
    assert rep.max_residual > 1e-3
    assert len(rep.witnesses) == 6


def test_mod1_seed_reproducible():
    a = check_mod1(2, trials=6, seed=11, ctx=CTX)
    b = check_mod1(2, trials=6, seed=11, ctx=CTX)
    assert a == b
    c = check_mod1(2, trials=6, seed=12, ctx=CTX)
    assert c.max_residual != a.max_residual


def test_mod2_at_1728():
    rep = check_mod2(2, 1728, ctx=CTX)
    assert rep.verdict == "pass"
    assert rep.trials == 3
    assert len(rep.witnesses) == 3
    assert rep.max_residual < 1e-4
    matched = sorted(w["root"][0] for w in rep.witnesses)
    assert abs(matched[0] - 1728.0) < 1.0
    assert abs(matched[1] - 287496.0) < 1.0
    assert abs(matched[2] - 287496.0) < 1.0


def test_mod2_n1_trivial():
    rep = check_mod2(1, 5000.5, ctx=CTX)
    assert rep.verdict == "pass"
    assert rep.trials == 1
    assert rep.witnesses[0]["distance"] < 1e-8


def test_mod2_triple_root_at_zero():
    # Phi_2(0, Y) = (Y - 54000)^3; root extraction at a triple root only
    # carries about a third of the working digits, still inside 1e-4.
    rep = check_mod2(2, 0, ctx=CTX)
    assert rep.verdict == "pass"
    for w in rep.witnesses:
        assert abs(w["image"][0] - 54000.0) < 1.0


def test_mod2_generic_point():
    x0 = float(j(NumericPoint(0.21, 1.31, 192), CTX).value.real)
    rep = check_mod2(2, x0, ctx=CTX)
    assert rep.verdict == "pass"
    assert rep.max_residual < 1e-4


@pytest.mark.parametrize("x0", [0, 1728])
def test_mod2_n3_multiple_roots(x0):
    # Phi_3(0, Y) = Y (Y + 12288000)^3; Phi_3(1728, Y) has two real double
    # roots, one of them j(3i) = j(i/3)
    rep = check_mod2(3, x0, ctx=CTX)
    assert rep.verdict == "pass"
    assert rep.trials == 4
    assert rep.max_residual < 1e-4


@pytest.mark.parametrize("x0", [5000, 1728, complex(45000, -80000)])
def test_mod2_corrupted_phi_fails_with_witness(monkeypatch, x0):
    # X^3 Y off by one moves every root of Phi_2(X0, Y) away from the
    # coset images, including the double root 287496 over 1728
    bad = dict(modular_polynomial(2).coeffs)
    bad[(3, 1)] = bad.get((3, 1), 0) + 1
    bad_phi = ModularPolynomial.from_map(2, bad)
    monkeypatch.setattr(axioms, "modular_polynomial", lambda n: bad_phi)
    rep = check_mod2(2, x0, ctx=CTX)
    assert rep.verdict == "fail"
    assert rep.max_residual >= 1e-4
    assert len(rep.witnesses) == 3
    assert max(w["distance"] for w in rep.witnesses) == rep.max_residual


def test_sp_at_i():
    rep = check_sp(CMPoint(-1, 0, 1), ctx=CTX)
    assert rep.verdict == "pass"
    w = rep.witnesses[0]
    assert w["witness_matrix"] == "[[0,-1],[1,0]]"
    assert w["exact_round_trip"] is True
    assert abs(w["z_x"][0] - 1728.0) < 1e-8
    assert rep.max_residual < 1e-8


def test_sp_at_zeta():
    tau = CMPoint(-3, Fraction(1, 2), Fraction(1, 2))
    rep = check_sp(tau, ctx=CTX)
    assert rep.verdict == "pass"
    assert abs(rep.witnesses[0]["z_x"][0]) < 1e-8


def test_sp_at_sqrt_minus7():
    tau = CMPoint(-7, Fraction(1, 2), Fraction(1, 2))
    rep = check_sp(tau, ctx=CTX)
    assert rep.verdict == "pass"
    assert abs(rep.witnesses[0]["z_x"][0] + 3375.0) < 1e-6


def test_sf_small_levels():
    for n, size in [(1, 1), (2, 6), (5, 120), (12, 1152),
                    (13, sl2_order(13)), (30, sl2_order(30))]:
        rep = check_sf(n)
        assert rep.verdict == "pass"
        assert rep.trials == size
        assert rep.max_residual == 0.0 and rep.witnesses == ()


def test_sf_level_cap():
    with pytest.raises(LevelTooLarge):
        check_sf(31)


def test_report_schema():
    rep = check_sf(2)
    d = rep._asdict()
    assert set(d) == {"axiom", "params", "seed", "trials", "max_residual",
                      "verdict", "witnesses"}
    assert d["axiom"] == "SF(2)"
    assert isinstance(json.loads(json.dumps(d))["witnesses"], list)
    assert isinstance(rep, AxiomReport)
