"""Numeric j-function on the upper half-plane.

Evaluation reduces the argument to the standard fundamental domain
(|Re| <= 1/2, |tau| >= 1) by one loop, which moves the point in mpmath and
keeps gamma as four ints, and sums the integer q-expansion there, where
|q| <= e^{-pi*sqrt(3)} makes the tail geometric.  The reported error bound
uses |c_m| <= e^{4*pi*sqrt(m)}, which dominates the true coefficients;
the series runs to DEFAULT_TERMS terms, or further, until that bound at
the largest |q| falls below 2^-prec.
The head of the series is summed by one Horner kernel in Gaussian fixed
point (Python ints scaled by 2^bits, after Enge's fixed-point evaluation
of q-series); at a reduced point it is off by at most 2^(20-bits), and
j sums with bits = prec+60, far under the 2^-prec term of the bound.
Inversion needs no starting guess: tau is the period ratio of an
elliptic curve with the wanted j-invariant, from the complex AGM, and the
closing j re-check at full precision decides every answer.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import exp, floor, log, pi, sqrt, ulp

from .errors import NoConvergence, PrecisionExhausted
from .moebius import CMPoint, NumericPoint, RatMatrix, act
from .qexp import DEFAULT_TERMS, j_coefficients

S = RatMatrix(0, -1, 1, 0)


class QSeriesContext(namedtuple("QSeriesContext", "prec_bits")):
    __slots__ = ()

    def __new__(cls, prec_bits=128):
        if prec_bits < 64:
            raise ValueError("need at least 64 bits")
        return tuple.__new__(cls, (prec_bits,))

    def refined(self) -> "QSeriesContext":
        return QSeriesContext(self.prec_bits * 2)


DEFAULT_CTX = QSeriesContext()


class JResult(namedtuple("JResult", "value abs_err")):
    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "value": [float(self.value.real), float(self.value.imag)],
            "abs_err": self.abs_err,
        }


def _reduce(re, im, prec: int):
    """((a, b, c, d), re', im') with re' + i*im' = gamma.(re + i*im) in the
    standard domain for gamma = (a, b; c, d) in SL2(Z).

    z moves at prec + 20 bits and the result is rounded to prec bits; gamma
    is four ints, updated in place of a matrix product at every step.
    """
    import mpmath
    with mpmath.workprec(prec + 20):
        z = mpmath.mpc(re, im)
        a, b, c, d = 1, 0, 0, 1
        bound = 1 - mpmath.mpf(2) ** (-(prec - 10))
        for _ in range(10000):
            k = int(mpmath.nint(z.real))
            if k:
                z -= k
                a, b = a - k * c, b - k * d
            if abs(z) ** 2 < bound:
                z = -1 / z
                a, b, c, d = -c, -d, a, b
            else:
                break
        else:
            raise NoConvergence("fundamental-domain reduction did not settle")
    with mpmath.workprec(prec):
        return (a, b, c, d), +z.real, +z.imag


def reduce_fundamental(tau: NumericPoint):
    """(gamma, tau') with tau' = gamma.tau in the standard domain."""
    gamma, re, im = _reduce(tau.re, tau.im, tau.prec_bits)
    return RatMatrix(*gamma), NumericPoint(re, im, tau.prec_bits)


def reduce_fundamental_exact(tau: CMPoint):
    """Exact reduction of a CM point; comparisons in rational arithmetic."""
    gamma = RatMatrix.identity()
    while True:
        k = floor(tau.x + Fraction(1, 2))
        if k:
            shift = RatMatrix(1, -k, 0, 1)
            tau = act(shift, tau)
            gamma = shift * gamma
        if tau.x * tau.x - tau.y * tau.y * tau.D < 1:
            tau = act(S, tau)
            gamma = S * gamma
        else:
            return gamma, tau


def _horner(coeffs, q: mpmath.mpc, bits: int) -> mpmath.mpc:
    """sum_m coeffs[m] q^m for integer coeffs, in bits-bit fixed point.

    q is read once as qr + i*qi over 2^bits, each part truncated (exact
    ldexp, then int), and each Horner step floors both parts of v*q to a
    multiple of 2^-bits.  For |q| <= r < 1 the result is off by less than

        sqrt(2) 2^-bits (sum_m m |c_m| r^(m-1) + 1/(1-r)):

    truncating q moves it by under sqrt(2) 2^-bits, toward 0, so the
    polynomial moves by at most that times max |P'| on the disc of radius
    r; each floor adds under sqrt(2) 2^-bits, and later steps multiply it
    by q.  At a reduced point r = e^{-pi*sqrt(3)} and, the j coefficients
    c_0, c_1, ... being positive, sum_m m c_m r^(m-1) < 4.4e5 < 2^19 at
    every length, so the error is under 2^(20-bits).
    """
    import mpmath
    qr = int(mpmath.ldexp(q.real, bits))
    qi = int(mpmath.ldexp(q.imag, bits))
    vr = vi = 0
    for c in reversed(coeffs):
        vr, vi = (((vr * qr - vi * qi) >> bits) + (c << bits),
                  (vr * qi + vi * qr) >> bits)
    return mpmath.mpc(mpmath.ldexp(vr, -bits), mpmath.ldexp(vi, -bits))


@lru_cache(maxsize=None)
def _tail_constants(K: int, prec: int) -> tuple:
    """(e^{2 pi / sqrt(K)}, e^{4 pi sqrt(K)}) at prec bits."""
    import mpmath
    with mpmath.workprec(prec):
        return (mpmath.exp(2 * mpmath.pi / mpmath.sqrt(K)),
                mpmath.exp(4 * mpmath.pi * mpmath.sqrt(K)))


def _terms(ctx: QSeriesContext) -> int:
    """The least K >= DEFAULT_TERMS whose tail bound at the largest |q| of a
    reduced point, r = e^{-pi sqrt 3}, is below 2^-prec_bits:
    e^{4 pi sqrt(K)} r^K / (1 - e^{2 pi / sqrt(K)} r), taken in float logs
    only to pick the length; the bound j reports is computed exactly."""
    K = DEFAULT_TERMS
    while (4 * pi * sqrt(K) - pi * sqrt(3) * K
           - log(1 - exp(2 * pi / sqrt(K) - pi * sqrt(3)))
           >= -ctx.prec_bits * log(2)):
        K += 1
    return K


def _series_eval(z: mpmath.mpc, ctx: QSeriesContext):
    """(value, tail bound) of the q-expansion at a reduced point."""
    import mpmath
    K = _terms(ctx)
    q = mpmath.exp(2j * mpmath.pi * z)
    absq = abs(q)
    ratio, growth = _tail_constants(K, mpmath.mp.prec)
    # geometric tail: |c_m| <= e^{4 pi sqrt(m)} and the term ratio beyond K
    # is at most rho = e^{2 pi / sqrt(K)} * |q|
    rho = ratio * absq
    if rho >= 1:
        raise PrecisionExhausted(f"tail ratio {float(rho):.3f} >= 1 at {K} terms")
    head = growth * absq ** K
    tail = head / (1 - rho)
    value = _horner(j_coefficients(K)[1:], q, ctx.prec_bits + 60) + 1 / q
    # the kernel's 2^(-prec-40) and the rounding at prec+40 bits sit well
    # under the 2^-prec term; a bound that underflows a float reports the
    # least positive one, never 0.0
    err = float(tail + mpmath.mpf(2) ** (-ctx.prec_bits) * (1 + abs(value)))
    return value, err or ulp(0.0)


def j(tau, ctx: QSeriesContext = DEFAULT_CTX) -> JResult:
    """j(tau) with an honest absolute error bound."""
    import mpmath
    with mpmath.workprec(ctx.prec_bits + 40):
        if isinstance(tau, CMPoint):
            _, red = reduce_fundamental_exact(tau)
            z = red.to_mpc(ctx.prec_bits + 40)
        elif isinstance(tau, NumericPoint):
            _, re, im = _reduce(tau.re, tau.im, max(tau.prec_bits, ctx.prec_bits + 40))
            z = mpmath.mpc(re, im)
        else:
            raise TypeError(f"cannot evaluate j on {type(tau).__name__}")
        value, err = _series_eval(z, ctx)
    return JResult(value, err)


def _agm(x, y):
    """AGM(x, y) with the optimal square root at every step.

    Before each step y is negated if that brings it nearer x, so
    |x - y| <= |x + y| throughout; the sequence then converges
    quadratically for any complex start (Cremona and Thongjunthug).
    """
    import mpmath
    prec = mpmath.mp.prec
    for _ in range(prec):
        if abs(x - y) > abs(x + y):
            y = -y
        if abs(x - y) <= mpmath.ldexp(abs(x), 4 - prec):
            return x
        x, y = (x + y) / 2, mpmath.sqrt(x * y)
    raise NoConvergence(f"AGM did not settle from {complex(x)}, {complex(y)}")


def invert_j(X0, ctx: QSeriesContext = DEFAULT_CTX) -> NumericPoint:
    """tau in the fundamental domain with j(tau) = X0.

    tau is the period ratio of y^2 = 4x^3 - g2 x - g3, a curve with
    j-invariant X0: the roots e1, e2, e3 come from Cardano's formula and
    the periods pi/AGM(a, b), pi/AGM(a, c) from the optimal complex AGM of
    a, b, c = sqrt(e1 - e3), sqrt(e1 - e2), sqrt(e2 - e3) (Cremona and
    Thongjunthug, J. Number Theory 133 (2013)).  No starting guess is
    needed, and the ramified values 0 and 1728 come out at full precision.
    As X0 grows two roots close in at distance about |X0|^(-1/2), so the
    work runs about log2(1 + |X0|) bits above prec + 40.  The q-series value
    j(tau) is then compared with X0; that second computation alone
    decides the answer.
    """
    import mpmath
    prec = ctx.prec_bits
    with mpmath.workprec(prec + 40 + max(0, mpmath.mag(X0))):
        X0 = mpmath.mpc(X0)
        if X0 == 0:
            g2, g3 = 0, 1
        elif X0 == 1728:
            g2, g3 = 1, 0
        else:
            g2 = g3 = 27 * X0 / (X0 - 1728)
        # 4x^3 - g2 x - g3 = 4(x^3 + p x + r); Cardano, taking the larger
        # cube u^3 so that u is never 0
        p, r = mpmath.mpc(g2) / -4, mpmath.mpc(g3) / -4
        s = mpmath.sqrt(r * r / 4 + p ** 3 / 27)
        u = mpmath.cbrt(max(s - r / 2, -s - r / 2, key=abs))
        w = mpmath.mpc(-0.5, mpmath.sqrt(3) / 2)
        e1, e2, e3 = (u * k - p / (3 * u * k) for k in (1, w, w.conjugate()))
        a, b, c = mpmath.sqrt(e1 - e3), mpmath.sqrt(e1 - e2), mpmath.sqrt(e2 - e3)
        # i * omega1 / omega2 with omega1 = pi/AGM(a, b), omega2 = pi/AGM(a, c)
        z = 1j * _agm(a, c) / _agm(a, b)
        if z.imag < 0:
            z = -z
        _, red = reduce_fundamental(NumericPoint(z.real, z.imag, prec))
        check = j(red, ctx)
        if abs(check.value - X0) / (1 + abs(X0)) > 1e-6:
            raise NoConvergence(
                f"residual {float(abs(check.value - X0)):.3e} too large for X0 = {complex(X0)}"
            )
    return red
