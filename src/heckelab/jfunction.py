"""Numeric j-function on the upper half-plane.

Evaluation reduces the argument to the standard fundamental domain
(|Re| <= 1/2, |tau| >= 1) and sums the integer q-expansion there, where
|q| <= e^{-pi*sqrt(3)} makes the tail geometric.  The reported error bound
uses |c_m| <= e^{4*pi*sqrt(m)}, which dominates the true coefficients.
The head of the series is summed by one Horner kernel in Gaussian fixed
point (Python ints scaled by 2^bits, after Enge's fixed-point evaluation
of q-series); at a reduced point it is off by at most 2^(20-bits), and
j sums with bits = prec+60, far under the 2^-prec term of the bound.
Inversion is Newton's method on the same kernel, seeded from a coarse
grid of double-precision j values over the domain.  The seed only picks
where Newton starts: its step rule and the closing j re-check at full
precision decide every answer.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import floor

import mpmath

from .errors import NoConvergence, PrecisionExhausted
from .moebius import CMPoint, NumericPoint, RatMatrix, act
from .qexp import DEFAULT_TERMS, j_coefficients

S = RatMatrix(0, -1, 1, 0)


@dataclass(frozen=True)
class QSeriesContext:
    terms: int = DEFAULT_TERMS
    prec_bits: int = 128

    def __post_init__(self):
        if self.terms < 16:
            raise ValueError("need at least 16 series terms")
        if self.prec_bits < 64:
            raise ValueError("need at least 64 bits")

    def refined(self) -> "QSeriesContext":
        return QSeriesContext(self.terms * 2, self.prec_bits * 2)


DEFAULT_CTX = QSeriesContext()


@dataclass(frozen=True)
class JResult:
    value: mpmath.mpc
    abs_err: float

    def to_dict(self) -> dict:
        return {
            "value": [float(self.value.real), float(self.value.imag)],
            "abs_err": self.abs_err,
        }


def reduce_fundamental(tau: NumericPoint):
    """(gamma, tau') with tau' = gamma.tau in the standard domain."""
    prec = tau.prec_bits
    with mpmath.workprec(prec + 20):
        z = tau.value()
        gamma = RatMatrix.identity()
        slack = mpmath.mpf(2) ** (-(prec - 10))
        for _ in range(10000):
            k = int(mpmath.nint(z.real))
            if k:
                z -= k
                gamma = RatMatrix(1, -k, 0, 1) * gamma
            if abs(z) ** 2 < 1 - slack:
                z = -1 / z
                gamma = S * gamma
            else:
                break
        else:
            raise NoConvergence("fundamental-domain reduction did not settle")
    return gamma, NumericPoint(z.real, z.imag, prec)


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
    qr = int(mpmath.ldexp(q.real, bits))
    qi = int(mpmath.ldexp(q.imag, bits))
    vr = vi = 0
    for c in reversed(coeffs):
        vr, vi = (((vr * qr - vi * qi) >> bits) + (c << bits),
                  (vr * qi + vi * qr) >> bits)
    return mpmath.mpc(mpmath.ldexp(vr, -bits), mpmath.ldexp(vi, -bits))


def _series_eval(z: mpmath.mpc, ctx: QSeriesContext):
    """(value, tail bound) of the q-expansion at a reduced point."""
    K = ctx.terms
    q = mpmath.exp(2j * mpmath.pi * z)
    absq = abs(q)
    # geometric tail: |c_m| <= e^{4 pi sqrt(m)} and the term ratio beyond K
    # is at most rho = e^{2 pi / sqrt(K)} * |q|
    rho = mpmath.exp(2 * mpmath.pi / mpmath.sqrt(K)) * absq
    if rho >= 1:
        raise PrecisionExhausted(f"tail ratio {float(rho):.3f} >= 1 at {K} terms")
    head = mpmath.exp(4 * mpmath.pi * mpmath.sqrt(K)) * absq ** K
    tail = head / (1 - rho)
    value = _horner(j_coefficients(K)[1:], q, ctx.prec_bits + 60) + 1 / q
    # the kernel's 2^(-prec-40) and the rounding at prec+40 bits sit well
    # under the 2^-prec term
    return value, float(tail + mpmath.mpf(2) ** (-ctx.prec_bits) * (1 + abs(value)))


def j(tau, ctx: QSeriesContext = DEFAULT_CTX) -> JResult:
    """j(tau) with an honest absolute error bound."""
    with mpmath.workprec(ctx.prec_bits + 40):
        if isinstance(tau, CMPoint):
            _, red = reduce_fundamental_exact(tau)
            z = red.to_mpc(ctx.prec_bits + 40)
        elif isinstance(tau, NumericPoint):
            lifted = NumericPoint(tau.re, tau.im, max(tau.prec_bits, ctx.prec_bits + 40))
            _, red = reduce_fundamental(lifted)
            z = red.value()
        else:
            raise TypeError(f"cannot evaluate j on {type(tau).__name__}")
        value, err = _series_eval(z, ctx)
    return JResult(value, err)


@cache
def _start_grid():
    """(j(z), z) at 40x40 points of the fundamental domain, in floats.

    Only Newton's seed is read from it, so double precision is enough.
    """
    coeffs = j_coefficients(32)[:0:-1]  # c_31, ..., c_0 for Horner
    pts = []
    for i in range(40):
        re = -0.5 + (i + 0.5) / 40
        for k in range(40):
            im = 0.5 + 3.5 * (k + 0.5) / 40
            z = complex(re, im)
            if abs(z) < 1:
                continue
            q = cmath.exp(2j * cmath.pi * z)
            val = 0j
            for c in coeffs:
                val = val * q + c
            pts.append((val + 1 / q, z))
    return pts


def _grid_start(x0: complex) -> complex:
    """The grid point whose j value lies nearest x0."""
    return min(_start_grid(), key=lambda p: abs(p[0] - x0))[1]


def invert_j(X0, ctx: QSeriesContext = DEFAULT_CTX) -> NumericPoint:
    """tau in the fundamental domain with j(tau) = X0.

    Newton on the q-expansion, j and j' summed by the fixed-point kernel
    from one exp(2 pi i z) per step; converges linearly at the ramified
    values 0 and 1728, which the step-size stopping rule tolerates.
    """
    prec = ctx.prec_bits
    with mpmath.workprec(prec + 40):
        X0 = mpmath.mpc(X0)
        if abs(X0) > 1e9:
            # j ~ 1/q for large values; start from the dominant term
            q0 = 1 / X0
            z = mpmath.log(q0) / (2j * mpmath.pi)
            z = mpmath.mpc(z.real - mpmath.nint(z.real), z.imag)
        else:
            z = mpmath.mpc(_grid_start(complex(X0)))
        coeffs = j_coefficients(ctx.terms)[1:]
        dcoeffs = [m * c for m, c in enumerate(coeffs)]  # q d/dq
        # near 0 and 1728 the residual is cubic or quadratic in the distance
        # to the root, so it must resolve about 2^(-3 prec / 2) to settle
        bits = 2 * prec + 80

        for _ in range(400):
            qq = mpmath.exp(2j * mpmath.pi * z)
            inv = 1 / qq
            fv = _horner(coeffs, qq, bits) + inv - X0
            dv = (_horner(dcoeffs, qq, bits) - inv) * 2j * mpmath.pi
            if dv == 0:
                z += mpmath.mpc("1e-6", "1e-6")
                continue
            step = fv / dv
            z = z - step
            if z.imag <= 0.05:
                z = mpmath.mpc(z.real, 0.05)
            if abs(step) < mpmath.mpf(2) ** (-(prec // 2)) * max(1, abs(z)):
                break
        else:
            raise NoConvergence(f"Newton did not settle for X0 = {complex(X0)}")
        pt = NumericPoint(z.real, z.imag, prec)
        _, red = reduce_fundamental(pt)
        check = j(red, ctx)
        if abs(check.value - X0) / (1 + abs(X0)) > 1e-6:
            raise NoConvergence(
                f"residual {float(abs(check.value - X0)):.3e} too large for X0 = {complex(X0)}"
            )
    return red
