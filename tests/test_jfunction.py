import cmath
import random
from fractions import Fraction

import mpmath
import pytest

from heckelab.errors import NoConvergence
from heckelab.jfunction import (
    DEFAULT_CTX,
    QSeriesContext,
    _horner,
    invert_j,
    j,
    reduce_fundamental,
    reduce_fundamental_exact,
)
from heckelab.moebius import CMPoint, NumericPoint, RatMatrix, act
from heckelab.qexp import j_coefficients

S = RatMatrix(0, -1, 1, 0)
T = RatMatrix(1, 1, 0, 1)


def test_j_at_i():
    r = j(CMPoint(-1, 0, 1))
    assert abs(r.value - 1728) < 1e-8
    r2 = j(NumericPoint(0.0, 1.0))
    assert abs(r2.value - 1728) < 1e-8


def test_j_at_zeta():
    r = j(CMPoint(-3, Fraction(1, 2), Fraction(1, 2)))
    assert abs(r.value) < 1e-8


def test_singular_moduli():
    # classical CM values, each an independent published constant
    cases = [
        (CMPoint(-1, 0, 2), 287496),
        (CMPoint(-2, 0, 1), 8000),
        (CMPoint(-3, 0, 1), 54000),
        (CMPoint(-7, Fraction(1, 2), Fraction(1, 2)), -3375),
        (CMPoint(-11, Fraction(1, 2), Fraction(1, 2)), -32768),
        (CMPoint(-163, Fraction(1, 2), Fraction(1, 2)), -262537412640768000),
    ]
    for tau, want in cases:
        r = j(tau)
        assert abs(r.value - want) < 1e-8 * max(1, abs(want))
        assert abs(r.value - want) < max(r.abs_err, 1e-20) * 1e6 or r.abs_err > 0


def test_translation_invariance():
    rng = random.Random(13)
    for _ in range(10):
        tau = NumericPoint(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.5))
        shifted = NumericPoint(tau.re + 1, tau.im)
        a, b = j(tau), j(shifted)
        assert abs(a.value - b.value) / (1 + abs(a.value)) < 1e-8


def test_gamma_invariance_random_words():
    rng = random.Random(29)
    for _ in range(50):
        g = RatMatrix.identity()
        for _ in range(rng.randint(1, 6)):
            g = g * rng.choice([S, T, T.inverse()])
        tau = NumericPoint(rng.uniform(-0.45, 0.45), rng.uniform(0.9, 2.0))
        a = j(tau).value
        b = j(act(g, tau)).value
        assert abs(a - b) / (1 + abs(a)) < 1e-8


def test_reduce_fundamental_examples():
    g, red = reduce_fundamental(NumericPoint(0.7, 0.1))
    z = red.value()
    assert abs(z.real) <= 0.5 + 1e-12 and abs(z) >= 1 - 1e-12
    assert g.in_sl2z()
    # gamma really maps the input to the reduced point
    moved = act(g, NumericPoint(0.7, 0.1)).value()
    assert abs(moved - z) < 1e-12

    g, red = reduce_fundamental(NumericPoint(0.0, 1.0))
    assert g == RatMatrix.identity()
    assert abs(red.value() - 1j) < 1e-15

    g, red = reduce_fundamental(NumericPoint(5.2, 1.4))
    assert g == RatMatrix(1, -5, 0, 1)
    assert abs(red.value() - (0.2 + 1.4j)) < 1e-12


def _reduce_by_fraction_products(tau):
    # reference: the same steps on z, with gamma kept as a RatMatrix and
    # multiplied out at every step
    prec = tau.prec_bits
    with mpmath.workprec(prec + 20):
        z = tau.value()
        gamma = RatMatrix.identity()
        slack = mpmath.mpf(2) ** (-(prec - 10))
        while True:
            k = int(mpmath.nint(z.real))
            if k:
                z -= k
                gamma = RatMatrix(1, -k, 0, 1) * gamma
            if abs(z) ** 2 < 1 - slack:
                z = -1 / z
                gamma = S * gamma
            else:
                return gamma, NumericPoint(z.real, z.imag, prec)


def test_reduce_fundamental_matches_fraction_products():
    # 200 seeded points, every fourth one with Im in [0.01, 0.06), where the
    # loop takes many steps
    rng = random.Random(89)
    for k in range(200):
        im = rng.uniform(0.01, 0.06) if k % 4 == 0 else rng.uniform(0.06, 3.0)
        tau = NumericPoint(rng.uniform(-3, 3), im, rng.choice([64, 128, 256]))
        g, red = reduce_fundamental(tau)
        want_g, want = _reduce_by_fraction_products(tau)
        assert g.in_sl2z()
        assert g == want_g
        assert (red.re, red.im, red.prec_bits) == (want.re, want.im, want.prec_bits)
        with mpmath.workprec(tau.prec_bits + 20):
            moved = act(g, tau).value()
            assert abs(moved - red.value()) <= mpmath.ldexp(1, 30 - tau.prec_bits)


def test_reduce_fundamental_exact_random():
    rng = random.Random(37)
    sf = [-1, -2, -3, -5, -6, -7, -10, -11]
    for _ in range(50):
        tau = CMPoint(
            rng.choice(sf),
            Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
            Fraction(rng.randint(1, 30), rng.randint(1, 9)),
        )
        g, red = reduce_fundamental_exact(tau)
        assert g.in_sl2z()
        assert act(g, tau) == red
        assert abs(red.x) <= Fraction(1, 2)
        assert red.x * red.x - red.y * red.y * red.D >= 1


def test_invert_j_examples():
    t = invert_j(1728)
    assert abs(t.value() - 1j) < 1e-6
    t = invert_j(0)
    zeta = mpmath.mpc(0.5, mpmath.sqrt(3) / 2)
    assert min(abs(t.value() - zeta), abs(t.value() + zeta.conjugate())) < 1e-6


def test_invert_j_round_trip():
    rng = random.Random(53)
    done = 0
    while done < 20:
        tau = NumericPoint(rng.uniform(-0.45, 0.45), rng.uniform(1.02, 2.5), 128)
        if abs(tau.value()) < 1.02:
            continue
        x0 = j(tau).value
        back = invert_j(x0)
        assert abs(back.value() - tau.value()) < 1e-6
        done += 1


def test_invert_j_large_value():
    t = invert_j(mpmath.mpc(1e12, 5e11))
    assert abs(j(t).value - mpmath.mpc(1e12, 5e11)) / 1e12 < 1e-6


@pytest.mark.parametrize("X0", [0.5, -5.3, -111.3, -9693.7])
def test_invert_j_on_the_real_axis(X0):
    # tau lies on the boundary of the domain for a real X0
    back = j(invert_j(X0)).value
    assert abs(back - X0) <= 1e-6 * abs(X0)


@pytest.mark.parametrize("prec", [128, 192, 512])
@pytest.mark.parametrize("X0", [0, 1728, 1e-30, 1728 + 1e-20j])
def test_invert_j_at_ramified_values(X0, prec):
    # j - 0 vanishes to third order at rho and j - 1728 to second at i,
    # yet tau comes out at full precision
    ctx = QSeriesContext(prec_bits=prec)
    tau = invert_j(X0, ctx)
    back = j(tau, ctx)
    with mpmath.workprec(prec + 40):
        z = tau.value()
        assert abs(z.real) <= 0.5 and abs(z) >= 1 - 1e-12
        full = mpmath.ldexp(1, 8 - prec)
        rho = mpmath.mpc(-0.5, mpmath.sqrt(3) / 2)
        if X0 == 0:
            assert min(abs(z - rho), abs(z - rho - 1)) <= full
        if X0 == 1728:
            assert abs(z - 1j) <= full
        assert abs(back.value - X0) <= back.abs_err + full * (1 + abs(X0))


def test_invert_j_matches_kleinj():
    # 320 seeded X0, |X0| log-uniform over [1e-30, 1e300] at all arguments,
    # every fourth one real (its tau lies on the boundary of the domain),
    # each against mpmath's theta-function kleinj
    rng = random.Random(83)
    for k in range(320):
        r = 10 ** rng.uniform(-30, 300)
        X0 = (rng.choice([r, -r]) if k % 4 == 0
              else cmath.rect(r, rng.uniform(-cmath.pi, cmath.pi)))
        tau = invert_j(X0)
        with mpmath.workprec(DEFAULT_CTX.prec_bits + 80):
            z = tau.value()
            assert abs(z.real) <= 0.5
            assert abs(z) ** 2 >= 1 - mpmath.ldexp(1, 10 - DEFAULT_CTX.prec_bits)
            back = 1728 * mpmath.kleinj(z)
            assert abs(back - X0) <= mpmath.ldexp(1, -100) * (1 + abs(X0)), X0


def test_horner_within_its_bound():
    # |q| at its largest over the reduced domain, all around the circle
    coeffs = j_coefficients(64)[1:]
    for bits in (64, 100, 300):
        with mpmath.workprec(4 * bits):
            r = mpmath.exp(-mpmath.pi * mpmath.sqrt(3))
        for k in range(16):
            with mpmath.workprec(bits + 40):
                q = r * mpmath.expjpi(mpmath.mpf(k) / 8)
                got = _horner(coeffs, q, bits)
            with mpmath.workprec(4 * bits):
                want = mpmath.polyval(coeffs[::-1], q)
                assert abs(got - want) <= mpmath.ldexp(1, 20 - bits)


def test_j_matches_kleinj():
    # 200 seeded points near the real axis and above it, each against
    # mpmath's theta-function kleinj at 80 more bits
    rng = random.Random(71)
    ctxs = [DEFAULT_CTX, QSeriesContext(prec_bits=256),
            QSeriesContext(prec_bits=1024), DEFAULT_CTX.refined()]
    bands = [(0.01, 0.06), (0.1, 0.9), (0.9, 3.0)]
    for k in range(200):
        lo, hi = bands[k % 3]
        ctx = ctxs[k % 4]
        tau = NumericPoint(rng.uniform(-2, 2), rng.uniform(lo, hi))
        got = j(tau, ctx)
        with mpmath.workprec(ctx.prec_bits + 80):
            want = 1728 * mpmath.kleinj(mpmath.mpc(tau.re, tau.im))
            assert abs(got.value - want) <= got.abs_err, (tau, ctx)


def test_error_bound_honest():
    ctx = QSeriesContext(prec_bits=96)
    pts = [
        NumericPoint(0.13, 1.1),
        NumericPoint(-0.41, 0.95),
        NumericPoint(0.5, 3.0),
        NumericPoint(0.0, 1.0),
    ]
    for tau in pts:
        coarse = j(tau, ctx)
        fine = j(tau, ctx.refined())
        assert abs(coarse.value - fine.value) <= coarse.abs_err


def test_abs_err_does_not_underflow_to_zero():
    # the bound here is below the least positive float
    r = j(NumericPoint(0.1, 1.1, 1748), QSeriesContext(prec_bits=1748))
    assert r.abs_err > 0.0


def test_series_lengthens_with_precision():
    # DEFAULT_TERMS is a floor: 1024 bits sum past it, to a bound
    # below 2^-1000, and the value agrees with mpmath's kleinj
    tau = NumericPoint(0.1, 1.1, 1024)
    r = j(tau, QSeriesContext(prec_bits=1024))
    assert r.abs_err < 2.0 ** -1000
    with mpmath.workprec(1100):
        want = 1728 * mpmath.kleinj(mpmath.mpc(tau.re, tau.im))
        assert abs(r.value - want) <= r.abs_err


def test_jresult_dict_shape():
    d = j(CMPoint(-1, 0, 1)).to_dict()
    assert set(d) == {"value", "abs_err"}
    assert abs(d["value"][0] - 1728) < 1e-8
    assert d["abs_err"] >= 0


def test_ctx_validation():
    with pytest.raises(ValueError):
        QSeriesContext(prec_bits=32)
