"""Double-coset representatives and modular polynomials for the j-line.

The degree-n correspondence is carried by the upper-triangular matrices
(a,b;0,d) with ad = n, 0 <= b < d.  The modular polynomial Phi_n is built
from exact integer q-series.  Each power sum of the j((a*tau+b)/d) is read
off a power of the j-series and peeled against powers of j into an integer
polynomial in X, its remainder exactly zero; Newton's identities turn these
into the Y-coefficients of Phi_n, every division exact.
Phi_n is built for squarefree n with psi(n) <= MAX_PSI, n in {1, 2, 3, 5, 7}.
The residual of Phi_n at a numeric point is exact as well: the point is
read as dyadic Gaussian integers, and only the final quotient is rounded.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd, isqrt
from types import MappingProxyType

from .errors import IllConditioned, NotSquarefree, PrecisionExhausted
from .moebius import RatMatrix, factor, is_squarefree
from .qexp import j_power_coefficients, series_mul

# positive q-exponents on which the remainder of every peeled power sum is
# checked to vanish
_CHECK_TERMS = 12

# Phi_n for squarefree n with psi(n) <= MAX_PSI (n = 1, 2, 3, 5, 7).  A cold
# build takes 0.05-0.08 s at n = 7 and 1-2 s at n = 10, 13 (2 cores, CPython
# 3.11); MOD2's psi(n)! pairings hold the bound: 8! but 12! at n = 6
MAX_PSI = 8


def psi(n: int) -> int:
    """n * prod_{p|n} (1 + 1/p), the coset count for squarefree n."""
    for p in factor(n):
        n = n // p * (p + 1)
    return n


CosetDecomposition = namedtuple("CosetDecomposition", "n reps")


def double_coset_reps(n: int) -> CosetDecomposition:
    """Representatives (a,b;0,d), ad = n, 0 <= b < d, disjointness verified."""
    if not 1 <= n <= 50:
        raise ValueError("n out of the supported range 1..50")
    if not is_squarefree(n):
        raise NotSquarefree(f"n={n} has a square factor")
    reps = []
    for a in range(1, n + 1):
        if n % a:
            continue
        d = n // a
        for b in range(d):
            if gcd(a, b, d) == 1:
                reps.append(RatMatrix(a, b, 0, d))
    if len(reps) != psi(n):
        raise AssertionError(f"{len(reps)} representatives at n={n}, not psi")
    if not verify_disjoint(reps):
        raise AssertionError(f"the cosets at n={n} are not disjoint")
    return CosetDecomposition(n, tuple(reps))


def verify_disjoint(reps) -> bool:
    """Cosets Gamma*h_i pairwise disjoint.  h_i * adj(h_j) is a nonzero
    multiple of h_i h_j^-1; divided by the gcd g of its entries it has
    determinant 1, i.e. det == g^2, exactly when it lies in +-SL2(Z),
    merging the cosets."""
    ints = [tuple(map(int, h.normalized())) for h in reps]
    for i, (a, b, c, d) in enumerate(ints):
        for p, q, r, s in ints[i + 1 :]:
            # (a,b;c,d) * (s,-q;-r,p)
            w, x, y, z = a * s - b * r, b * p - a * q, c * s - d * r, d * p - c * q
            g = gcd(w, x, y, z)
            if w * z - x * y == g * g:
                return False
    return True


class ModularPolynomial(namedtuple("ModularPolynomial", "n coeffs degX degY",
                                   defaults=(0, 0))):
    __slots__ = ()

    def __hash__(self):
        # a mappingproxy has no hash, so coeffs stays out; == compares it
        return hash((self.n, self.degX, self.degY))

    @classmethod
    def from_map(cls, n: int, coeffs: dict) -> "ModularPolynomial":
        """The nonzero coefficients, read-only: `modular_polynomial`
        hands one shared object to every caller."""
        coeffs = {k: v for k, v in coeffs.items() if v}
        degX = max((i for i, _ in coeffs), default=0)
        degY = max((j for _, j in coeffs), default=0)
        return cls(n, MappingProxyType(coeffs), degX, degY)

    def coefficient(self, i: int, j: int) -> int:
        return self.coeffs.get((i, j), 0)

    def is_symmetric(self) -> bool:
        return all(self.coefficient(j, i) == c for (i, j), c in self.coeffs.items())

    def residual(self, x, y) -> float:
        """|Phi(x,y)| / (1 + the largest |c_ij x^i y^j|), exact until one
        final rounding.

        x and y are read exactly as X/W and Y/W, with X, Y Gaussian
        integers and W = 2^B, so V = W^(dx+dy) Phi(x,y) is a Gaussian
        integer: Horner over Y of the integer X-polynomials
        sum_i c_ij X^i W^(dx-i).  The largest monomial, scaled the same
        way, is picked by its exact square.
        """
        (xr, xi, ex), (yr, yi, ey) = _dyadic(x), _dyadic(y)
        B = max(0, -min(ex, ey))
        xr, xi = xr << (ex + B), xi << (ex + B)
        yr, yi = yr << (ey + B), yi << (ey + B)
        dx, dy = self.degX, self.degY
        vr = vi = 0
        for j in range(dy, -1, -1):
            pr = pi = 0
            for i in range(dx, -1, -1):
                pr, pi = (pr * xr - pi * xi + (self.coefficient(i, j) << B * (dx - i)),
                          pr * xi + pi * xr)
            w = B * (dy - j)
            vr, vi = vr * yr - vi * yi + (pr << w), vr * yi + vi * yr + (pi << w)
        nx = [(xr * xr + xi * xi) ** i for i in range(dx + 1)]
        ny = [(yr * yr + yi * yi) ** j for j in range(dy + 1)]
        top = max((c * c * nx[i] * ny[j] << 2 * B * (dx + dy - i - j)
                   for (i, j), c in self.coeffs.items()), default=0)
        return isqrt(vr * vr + vi * vi) / ((1 << B * (dx + dy)) + isqrt(top))

    def y_coefficients_at(self, x) -> list:
        """Coefficients of Phi(x, Y) by descending Y-power."""
        out = []
        for j in range(self.degY, -1, -1):
            c = 0
            for i in range(self.degX + 1):
                cij = self.coefficient(i, j)
                if cij:
                    c += cij * x ** i
            out.append(c)
        return out


def _dyadic(z) -> tuple:
    """(a, b, e) with z = (a + b*i) 2^e exactly, for a finite int, float,
    complex or mpmath number."""
    if isinstance(z, int):
        return z, 0, 0
    import mpmath
    z = mpmath.mpmathify(z)
    parts = z._mpc_ if hasattr(z, "_mpc_") else (z._mpf_, mpmath.libmp.fzero)
    if any(not man and exp for _, man, exp, _ in parts):
        raise ValueError(f"{z} is not finite")
    e = min((exp for _, man, exp, _ in parts if man), default=0)
    a, b = ((-man if sign else man) << (exp - e) if man else 0
            for sign, man, exp, _ in parts)
    return a, b, e


def _power_sums(n: int, deg: int, K: int) -> list:
    """p_s = sum over the reps of j(rep tau)^s, s = 1..deg, through
    q^_CHECK_TERMS.

    For squarefree n, gcd(a, d) = 1 and b runs over all of 0..d-1, so the
    roots of unity cancel every term of j^s whose exponent is not a multiple
    of d: sum_b j((a tau+b)/d)^s = d * sum_u [q^(d u)] j^s * q^(a u).
    """
    pairs = [(a, n // a) for a in range(1, n + 1) if n % a == 0]
    sums = []
    for s in range(1, deg + 1):
        js = j_power_coefficients(s, K - s + 1)  # entry t: q^(t - s)
        out = [0] * (_CHECK_TERMS + n * s + 1)
        for a, d in pairs:
            for u in range(-(s // d), _CHECK_TERMS // a + 1):
                out[a * u + n * s] += d * js[d * u + s]
        sums.append(out)  # entry t: q^(t - n s)
    return sums


@lru_cache(maxsize=None)
def modular_polynomial(n: int) -> ModularPolynomial:
    """Phi_n with exact integer coefficients, for squarefree n with
    psi(n) <= MAX_PSI, computed once per process.

    Phi_n(j, Y) = prod over reps (Y - j(rep tau)) = sum_k (-1)^k e_k Y^(deg-k).
    p_s = sum over reps j(rep tau)^s has a pole of order n*s and is an
    integer polynomial in j; Newton's identities give each e_k from them.
    Any nonzero remainder or inexact division raises PrecisionExhausted.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n == 1:
        return ModularPolynomial.from_map(1, {(1, 0): 1, (0, 1): -1})
    if not is_squarefree(n):
        raise NotSquarefree(f"n={n} is not squarefree")
    deg = psi(n)
    if deg > MAX_PSI:
        raise ValueError(f"Phi_{n} is not computed here: psi({n}) = {deg}, "
                         f"above {MAX_PSI}")
    # p_s reads j^s through q^(n * _CHECK_TERMS) and its peel reads j^(n s)
    # through q^_CHECK_TERMS: every j^M shares one j_coefficients(K)
    K = max(n * _CHECK_TERMS + deg, n * deg + _CHECK_TERMS)
    polys = []  # p_s entry M: X^M
    for s, work in enumerate(_power_sums(n, deg, K), 1):
        # peel: the q^-M term of what is left is the coefficient of j^M
        poly = [0] * (n * s + 1)
        for M in range(n * s, -1, -1):
            alpha = poly[M] = work[n * s - M]
            if alpha:
                jm = j_power_coefficients(M, K - M + 1)  # entry t: q^(t - M)
                for t in range(-M, _CHECK_TERMS + 1):
                    work[t + n * s] -= alpha * jm[t + M]
        for t, c in enumerate(work):
            if c:
                raise PrecisionExhausted(
                    f"Phi_{n}: the power sum p_{s} is not a polynomial in X; "
                    f"{c} is left at q^{t - n * s}")
        polys.append(poly)
    elem = [[1]]  # e_k entry M: X^M
    for k in range(1, deg + 1):
        # Newton: k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) p_i in Z[X]
        prods = [series_mul(e, p, len(e) + len(p) - 1)
                 for e, p in zip(elem[k - 1::-1], polys)]
        elem.append([])
        for M in range(n * k + 1):
            total = sum((-1) ** i * c[M] for i, c in enumerate(prods))
            if total % k:
                raise PrecisionExhausted(
                    f"Phi_{n}: the Y^{deg - k} coefficient has X^{M} "
                    f"coefficient {total}/{k}, not an integer")
            elem[k].append(total // k)
    return ModularPolynomial.from_map(n, {(M, deg - k): (-1) ** k * c
                                          for k, e in enumerate(elem)
                                          for M, c in enumerate(e)})


def correspondence_fiber(phi: ModularPolynomial, X0, starts,
                         prec_bits: int = 128, tol: float = 1e-4) -> list:
    """Root multiset of Phi(X0, .) with certified residuals.

    One Durand-Kerner pass starts at `starts`, approximations of the
    roots (MOD2 passes the coset images).  They only steer the iteration:
    the roots come from Phi alone, and each must pass Phi's residual gate.
    """
    import mpmath
    with mpmath.workprec(prec_bits):
        X0 = mpmath.mpc(X0)
        coeffs = phi.y_coefficients_at(X0)
        if phi.degY == 0:
            return []
        # equal starts at a multiple root never split, so each start moves
        # by a distinct relative 2^-40 (absolute where it is 0)
        w = mpmath.mpc(0.4, 0.9)
        starts = [z + (z or 1) * w ** k / 2 ** 40
                  for k, z in enumerate(map(mpmath.mpc, starts))]
        try:
            # the guard bits resolve the multiple roots at 0 and 1728
            roots = mpmath.polyroots(coeffs, maxsteps=2000, extraprec=600,
                                     roots_init=starts)
        except mpmath.libmp.libhyper.NoConvergence as exc:
            raise IllConditioned(
                f"no root convergence at X0 = {X0}: {exc}") from exc
        for r in roots:
            rel = phi.residual(X0, r)
            if rel > tol:
                raise IllConditioned(
                    f"root {complex(r)} has relative residual {rel:.3e}"
                )
    return list(roots)
