import math
import random

import mpmath
import pytest

from heckelab import hecke, qexp
from heckelab.errors import IllConditioned, NotSquarefree, PrecisionExhausted
from heckelab.hecke import (
    ModularPolynomial,
    correspondence_fiber,
    double_coset_reps,
    is_squarefree,
    modular_polynomial,
    psi,
    verify_disjoint,
)
from heckelab.jfunction import QSeriesContext, invert_j, j
from heckelab.moebius import CMPoint, NumericPoint, RatMatrix, act

CTX = QSeriesContext(prec_bits=192)

PHI2_CLASSICAL = {
    (3, 0): 1, (0, 3): 1, (2, 2): -1,
    (2, 1): 1488, (1, 2): 1488,
    (2, 0): -162000, (0, 2): -162000,
    (1, 1): 40773375,
    (1, 0): 8748000000, (0, 1): 8748000000,
    (0, 0): -157464000000000,
}


def test_reps_n1():
    dec = double_coset_reps(1)
    assert [str(m) for m in dec.reps] == ["[[1,0],[0,1]]"]


def test_reps_n2():
    dec = double_coset_reps(2)
    assert [str(m) for m in dec.reps] == [
        "[[1,0],[0,2]]", "[[1,1],[0,2]]", "[[2,0],[0,1]]",
    ]


def test_reps_count_law():
    for n in (1, 2, 3, 5, 6, 10, 15, 30, 42):
        dec = double_coset_reps(n)
        assert len(dec.reps) == psi(n)
        assert verify_disjoint(dec.reps)


def test_reps_determinant_and_shape():
    for rep in double_coset_reps(30).reps:
        assert rep.det() == 30
        assert rep.c == 0
        assert 0 <= rep.b < rep.d


def test_reps_rejects_non_squarefree():
    for n in (4, 9, 12, 18, 50):
        if is_squarefree(n):
            continue
        with pytest.raises(NotSquarefree):
            double_coset_reps(n)
    with pytest.raises(ValueError):
        double_coset_reps(0)
    with pytest.raises(ValueError):
        double_coset_reps(51)


def test_disjointness_detects_merge():
    # T * (1,0;0,2) lands in the same coset as (1,0;0,2)
    h = RatMatrix(1, 0, 0, 2)
    assert not verify_disjoint([h, RatMatrix(1, 1, 0, 1) * h])


def test_phi1():
    phi = modular_polynomial(1)
    assert phi.coeffs == {(1, 0): 1, (0, 1): -1}
    assert phi.residual(7, 7) == 0


def test_phi2_classical_table():
    phi = modular_polynomial(2)
    assert phi.coeffs == PHI2_CLASSICAL
    assert phi.is_symmetric()
    assert phi.coefficient(2, 2) == -1
    assert phi.degX == 3 and phi.degY == 3


def test_phi3_structure():
    phi = modular_polynomial(3)
    assert phi.is_symmetric()
    assert phi.degX == 4 and phi.degY == 4
    assert phi.coefficient(3, 3) == -1
    assert phi.coefficient(4, 0) == 1
    assert phi.coefficient(3, 2) == 2232
    assert phi.coefficient(3, 1) == -1069956
    assert phi.coefficient(3, 0) == 36864000
    assert phi.coefficient(2, 2) == 2587918086
    assert phi.coefficient(2, 1) == 8900222976000
    assert phi.coefficient(2, 0) == 452984832000000
    assert phi.coefficient(1, 1) == -770845966336000000
    assert phi.coefficient(1, 0) == 1855425871872000000000
    assert phi.coefficient(0, 0) == 0


def test_phi_vanishing_on_correspondence():
    rng = random.Random(41)
    for n in (2, 3):
        phi = modular_polynomial(n)
        for _ in range(10):
            tau = NumericPoint(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 2.0), 192)
            x = j(tau, CTX).value
            y = j(NumericPoint(tau.re * n, tau.im * n, 192), CTX).value
            assert phi.residual(x, y) < 1e-6


def _mpmath_residual(phi, x, y, bits):
    # the same quotient, summed monomial by monomial in mpmath
    with mpmath.workprec(bits):
        x, y = mpmath.mpmathify(x), mpmath.mpmathify(y)
        terms = [c * x ** i * y ** j for (i, j), c in phi.coeffs.items()]
        top = max(abs(t) for t in terms)
        return abs(mpmath.fsum(terms)) / (1 + top)


def _images(n, x0, ctx=CTX):
    # the coset images j(g tau0) over X0 = j(tau0): MOD2's starts
    tau0 = invert_j(x0, ctx)
    return [j(act(rep, tau0), ctx).value for rep in double_coset_reps(n).reps]


def _residual_points(n, rng):
    # (j(tau), j(n tau)) at 128 bits, whose values carry 168, and the fiber
    # of Phi_n over X0 = 1e30
    ctx = QSeriesContext(prec_bits=128)
    pts = []
    for _ in range(10):
        tau = NumericPoint(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 2.0), 128)
        with mpmath.workprec(128):  # n*tau exact, as in check_mod1
            ntau = NumericPoint(tau.re * n, tau.im * n, 128)
        pts.append((j(tau, ctx).value, j(ntau, ctx).value))
    x0 = mpmath.mpf(1e30)
    fiber = correspondence_fiber(modular_polynomial(n), x0, _images(n, x0, ctx))
    pts += [(x0, r) for r in fiber]
    return pts


@pytest.mark.parametrize("n", [2, 3])
def test_residual_is_exact(n):
    # against mpmath at 4x the 168 bits of the inputs; the exact quotient
    # is only rounded once, so the two agree to a few ulps
    phi = modular_polynomial(n)
    pts = _residual_points(n, random.Random(60 + n))
    pts.append((1728, j(CMPoint(-1, 0, n), CTX).value))
    for x, y in pts:
        got = phi.residual(x, y)
        want = _mpmath_residual(phi, x, y, 4 * 168)
        assert abs(got - want) <= 2.0 ** -50 * want, (x, y)
        assert got < 1e-37
    with pytest.raises(ValueError):
        phi.residual(mpmath.inf, 1)


def test_residual_sees_one_wrong_coefficient():
    # X^3 Y^3 is the largest monomial of Phi_3 wherever |y| >> |x|; with
    # its coefficient moved from -1 to 0 no point comes near zero
    phi = modular_polynomial(3)
    bad = dict(phi.coeffs)
    bad[(3, 3)] += 1
    bad_phi = ModularPolynomial.from_map(3, bad)
    for x, y in _residual_points(3, random.Random(63)):
        assert bad_phi.residual(x, y) > 1e-6


def test_phi2_at_1728_and_j2i():
    phi = modular_polynomial(2)
    y = j(CMPoint(-1, 0, 2), CTX).value  # 287496 exactly, numerically
    assert abs(y - 287496) < 1e-8 * 287496
    assert phi.residual(1728, y) < 1e-6


def test_corrupted_series_fails_exact_check(monkeypatch):
    # one wrong coefficient of j (q^3) breaks either a Newton division or
    # the vanishing of a peeled remainder
    real = hecke.j_power_coefficients

    def corrupted(M, K):
        coeffs = list(real(M, K))
        if M == 1:
            coeffs[4] += 1
        return tuple(coeffs)

    monkeypatch.setattr(hecke, "j_power_coefficients", corrupted)
    modular_polynomial.cache_clear()  # build Phi_2 again, from the bad series
    with pytest.raises(PrecisionExhausted):
        modular_polynomial(2)


def test_shared_phi_is_read_only():
    phi = modular_polynomial(2)
    assert modular_polynomial(2) is phi
    with pytest.raises(TypeError):
        phi.coeffs[(2, 2)] += 1
    assert phi.coeffs == PHI2_CLASSICAL


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_corrupted_j_table_fails_exact_check(monkeypatch, n):
    # one wrong coefficient of j (q^3) in the shared table: every power of
    # j is built from it, and Phi_n's remainders or divisions still see it
    real = qexp._qj_series

    def corrupted(terms):
        out = real(terms)
        out[4] += 1
        return out

    caches = (qexp.j_coefficients, qexp.j_power_coefficients,
              modular_polynomial)
    monkeypatch.setattr(qexp, "_qj_series", corrupted)
    monkeypatch.setattr(qexp, "_qj_table", [])
    for cache in caches:
        cache.cache_clear()
    try:
        assert qexp.j_coefficients(4)[4] == 864299970 + 1
        with pytest.raises(PrecisionExhausted):
            modular_polynomial(n)
    finally:
        for cache in caches:  # nothing built from the bad table survives
            cache.cache_clear()


def test_modpoly_unsupported_level():
    # psi(6) = psi(11) = 12, psi(10) = 18: above hecke.MAX_PSI = 8
    for n in (6, 10, 11):
        with pytest.raises(ValueError, match=f"psi\\({n}\\) = {psi(n)}, "
                                             "above 8"):
            modular_polynomial(n)
    with pytest.raises(NotSquarefree):
        modular_polynomial(4)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_phi_degrees_are_psi_and_symmetric(n):
    phi = modular_polynomial(n)
    assert phi.degX == phi.degY == psi(n)
    assert phi.is_symmetric() == (n > 1)  # Phi_1 = X - Y is antisymmetric


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_kronecker_congruence(p):
    # Phi_p = (X^p - Y)(X - Y^p) = X^(p+1) - X^p Y^p - X Y + Y^(p+1) mod p
    phi = modular_polynomial(p)
    want = {(p + 1, 0): 1, (p, p): -1, (1, 1): -1, (0, p + 1): 1}
    for i in range(p + 2):
        for k in range(p + 2):
            assert (phi.coefficient(i, k) - want.get((i, k), 0)) % p == 0


@pytest.mark.parametrize("p", [5, 7])
def test_phi_vanishes_at_mpmath_kleinj(p):
    # mpmath's kleinj is Klein's j / 1728, computed from theta functions
    # without any of heckelab's q-series
    phi = modular_polynomial(p)
    rng = random.Random(70 + p)
    with mpmath.workprec(256):
        for _ in range(5):
            tau = mpmath.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 2.0))
            x = 1728 * mpmath.kleinj(tau)
            assert phi.residual(x, 1728 * mpmath.kleinj(p * tau)) < 1e-50
            assert phi.residual(x, 1728 * mpmath.kleinj(tau + 0.01)) > 1e-6


def test_fiber_phi1():
    # a start only steers: 4 still converges to the root 5
    roots = correspondence_fiber(modular_polynomial(1), 5, [4])
    assert len(roots) == 1
    assert abs(roots[0] - 5) < 1e-9


def test_fiber_triple_root_at_zero():
    # Phi_2(0, Y) = (Y - 54000)^3; 54000 = j(sqrt(-3)) = j(2 * zeta-point)
    # three equal starts at the triple root still split and converge
    roots = correspondence_fiber(modular_polynomial(2), 0, [54000] * 3)
    assert len(roots) == 3
    for r in roots:
        assert abs(r - 54000) / 54000 < 1e-4
    y = j(CMPoint(-3, 0, 1), CTX).value
    assert abs(y - 54000) < 1e-6


def test_fiber_matches_direct_images():
    phi = modular_polynomial(2)
    tau0 = NumericPoint(0.21, 1.37, 192)
    x0 = j(tau0, CTX).value
    imgs = [j(act(rep, tau0), CTX).value for rep in double_coset_reps(2).reps]
    # starts 1% off the images: the roots come from Phi_2, not the starts
    roots = correspondence_fiber(phi, x0, [1.01 * b for b in imgs])
    roots = sorted(roots, key=lambda z: (z.real, z.imag))
    imgs.sort(key=lambda z: (z.real, z.imag))
    for a, b in zip(roots, imgs):
        assert abs(a - b) / (1 + abs(b)) < 1e-4


def test_fiber_residual_gate():
    phi = modular_polynomial(2)
    with pytest.raises(IllConditioned):
        correspondence_fiber(phi, 100.0, _images(2, 100.0), tol=0.0)


def test_is_squarefree_brute_force():
    assert not any(is_squarefree(n) for n in range(-5, 1))
    for n in range(1, 2001):
        want = all(n % (k * k) for k in range(2, n + 1))
        assert is_squarefree(n) == want, n


def test_psi_counts_projective_line():
    # P^1(Z/n) is the pairs (c, d) mod n with gcd(c, d, n) = 1 up to the
    # units mod n, which act on them freely
    for n in range(1, 301):
        pairs = sum(math.gcd(c, d, n) == 1 for c in range(n) for d in range(n))
        units = sum(math.gcd(u, n) == 1 for u in range(n))
        assert psi(n) * units == pairs, n


def test_psi_values():
    assert psi(1) == 1
    assert psi(2) == 3
    assert psi(3) == 4
    assert psi(6) == 12
    assert psi(30) == 72
