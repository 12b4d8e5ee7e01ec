"""Exact arithmetic for GL2(Q)+ acting on the upper half-plane.

Matrices act as fractional-linear maps z -> (az+b)/(cz+d).  Points come in
two flavours: CMPoint (exact imaginary quadratic, x + y*sqrt(D) with D < 0
squarefree) and NumericPoint (arbitrary-precision floating point).  The
module also classifies elements (elliptic / parabolic / hyperbolic / scalar),
computes the unique fixed point of an elliptic element, and produces an
elliptic witness matrix fixing a given CM point.
"""

from __future__ import annotations

import enum
import re as _re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import NotElliptic

_FRAC_RE = _re.compile(r"-?\d+(?:/\d+)?")
FACTOR_LIMIT = 10**6


def factor(n: int) -> dict[int, int]:
    """{p: e} with n = prod p^e, primes ascending, for n >= 1.

    Trial division by 2 and then by odd p.  A cofactor that still needs a
    trial divisor above FACTOR_LIMIT (above 10^12 with no prime factor up
    to 10^6) is refused with ValueError rather than factored for ever.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}: not a positive integer")
    out, p, m = {}, 2, n
    while p * p <= m:
        if p > FACTOR_LIMIT:
            raise ValueError(f"cannot factor {n}: it needs a trial divisor "
                             f"above FACTOR_LIMIT = {FACTOR_LIMIT}")
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = 1
    return out


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = m^2 * d with d squarefree and m > 0; return (m, d).

    The sign of n goes into d.  Factored by `factor`.
    """
    if n == 0:
        raise ValueError("0 has no squarefree part")
    m = d = 1
    for p, e in factor(abs(n)).items():
        m *= p ** (e // 2)
        d *= p ** (e % 2)
    return m, d if n > 0 else -d


@lru_cache(maxsize=256)
def is_squarefree(n: int) -> bool:
    """True iff n >= 1 has no square factor.  Cached, because `act` on a
    CMPoint builds a new point with the same D at every step."""
    return n >= 1 and all(e == 1 for e in factor(n).values())


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def fraction_str(x: Fraction) -> str:
    """Serialize a rational: "p/q", with "/1" elided for integers."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class RatMatrix(namedtuple("RatMatrix", "a b c d")):
    """2x2 rational matrix with positive determinant (an element of GL2(Q)+).

    __new__ reads the entries as Fractions and __init__ checks the
    determinant; perfbench's tracer wraps __init__ to count constructions.
    """

    __slots__ = ()

    def __new__(cls, a, b, c, d):
        return tuple.__new__(cls, (_frac(a), _frac(b), _frac(c), _frac(d)))

    def __init__(self, a, b, c, d):
        if self.det() <= 0:
            raise ValueError(f"determinant {self.det()} <= 0: not in GL2(Q)+")

    @classmethod
    def identity(cls) -> "RatMatrix":
        return cls(1, 0, 0, 1)

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def trace(self) -> Fraction:
        return self.a + self.d

    def disc(self) -> Fraction:
        """tr^2 - 4 det; sign decides the element class."""
        t = self.trace()
        return t * t - 4 * self.det()

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return RatMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def _no_sequence_arithmetic(self, other):
        raise TypeError(f"unsupported operand for RatMatrix and "
                        f"{type(other).__name__}: a matrix is no sequence")

    # tuple's concatenation and repetition would act on the four entries
    __add__ = __radd__ = __rmul__ = _no_sequence_arithmetic

    def inverse(self) -> "RatMatrix":
        det = self.det()
        return RatMatrix(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def scale(self, lam) -> "RatMatrix":
        lam = _frac(lam)
        if lam <= 0:
            raise ValueError("only positive scaling preserves GL2(Q)+")
        return RatMatrix(self.a * lam, self.b * lam, self.c * lam, self.d * lam)

    def is_integral(self) -> bool:
        return all(e.denominator == 1 for e in self)

    def in_sl2z(self) -> bool:
        return self.is_integral() and self.det() == 1

    def normalized(self) -> "RatMatrix":
        """Projective representative with coprime integer entries.

        Scales by a positive rational so entries are integers with gcd 1,
        then flips sign so the first nonzero entry is positive.  The Moebius
        action is invariant under this normalization.
        """
        den = lcm(*(e.denominator for e in self))
        ints = [int(e * den) for e in self]
        g = gcd(*ints)
        ints = [v // g for v in ints]
        for v in ints:
            if v != 0:
                if v < 0:
                    ints = [-w for w in ints]
                break
        return RatMatrix(*ints)

    def int_entries(self) -> tuple[int, int, int, int]:
        """Entries of the normalized representative as plain ints."""
        return tuple(map(int, self.normalized()))

    def __str__(self) -> str:
        a, b, c, d = map(fraction_str, self)
        return f"[[{a},{b}],[{c},{d}]]"


def parse_matrix(s: str) -> RatMatrix:
    """Parse "[[a,b],[c,d]]" with integer or p/q entries."""
    tokens = _FRAC_RE.findall(s)
    stripped = _re.sub(r"[\s\[\],]|" + _FRAC_RE.pattern, "", s)
    if len(tokens) != 4 or stripped:
        raise ValueError(f"not a 2x2 matrix literal: {s!r}")
    entries = []
    for t in tokens:
        try:
            entries.append(Fraction(t))
        except ZeroDivisionError:
            raise ValueError(f"entry {t!r} of {s!r} has a zero denominator")
    return RatMatrix(*entries)


class CMPoint(namedtuple("CMPoint", "D x y")):
    """Exact point x + y*sqrt(D) of the upper half-plane, D < 0 squarefree."""

    __slots__ = ()

    def __new__(cls, D, x, y):
        x, y = _frac(x), _frac(y)
        if D >= 0:
            raise ValueError("D must be negative")
        if not is_squarefree(-D):
            raise ValueError(f"D={D} is not squarefree")
        if y <= 0:
            raise ValueError("point must lie in the upper half-plane (y > 0)")
        return tuple.__new__(cls, (D, x, y))

    def minimal_polynomial(self) -> tuple[Fraction, Fraction]:
        """(B, C) with tau^2 + B*tau + C = 0 the monic minimal polynomial."""
        return (-2 * self.x, self.x * self.x - self.y * self.y * self.D)

    def to_mpc(self, prec_bits: int = 64) -> mpmath.mpc:
        import mpmath
        with mpmath.workprec(prec_bits + 10):
            re = mpmath.mpf(self.x.numerator) / self.x.denominator
            im = (mpmath.mpf(self.y.numerator) / self.y.denominator) * mpmath.sqrt(-self.D)
            return mpmath.mpc(re, im)

    def to_dict(self) -> dict:
        return {"D": self.D, "x": fraction_str(self.x), "y": fraction_str(self.y)}


class NumericPoint(namedtuple("NumericPoint", "re im prec_bits")):
    """Floating upper half-plane point with a working-precision tag in bits."""

    __slots__ = ()

    def __new__(cls, re, im, prec_bits=64):
        if prec_bits < 64:
            raise ValueError("working precision below 64 bits")
        import mpmath
        with mpmath.workprec(prec_bits):
            re, im = mpmath.mpf(re), mpmath.mpf(im)
        if im <= 0:
            raise ValueError("point must lie in the upper half-plane (im > 0)")
        return tuple.__new__(cls, (re, im, prec_bits))

    def value(self) -> mpmath.mpc:
        import mpmath
        return mpmath.mpc(self.re, self.im)


class ElementKind(enum.Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"
    SCALAR = "scalar"


ElementClass = namedtuple("ElementClass", "kind disc")


def classify(g: RatMatrix) -> ElementClass:
    """Classify g by the sign of tr^2 - 4 det; scalars split off first."""
    disc = g.disc()
    if g.b == 0 and g.c == 0 and g.a == g.d:
        return ElementClass(ElementKind.SCALAR, disc)
    if disc < 0:
        return ElementClass(ElementKind.ELLIPTIC, disc)
    if disc == 0:
        return ElementClass(ElementKind.PARABOLIC, disc)
    return ElementClass(ElementKind.HYPERBOLIC, disc)


def act(g: RatMatrix, tau):
    """Apply z -> (az+b)/(cz+d); exact on CMPoint, floating on NumericPoint."""
    if isinstance(tau, CMPoint):
        # (p + q sqrt(D)) / (r + s sqrt(D)), multiplied by the conjugate.
        p = g.a * tau.x + g.b
        q = g.a * tau.y
        r = g.c * tau.x + g.d
        s = g.c * tau.y
        den = r * r - s * s * tau.D
        x1 = (p * r - q * s * tau.D) / den
        y1 = (q * r - p * s) / den
        return CMPoint(tau.D, x1, y1)
    if isinstance(tau, NumericPoint):
        import mpmath
        prec = tau.prec_bits
        with mpmath.workprec(prec + 20):
            a, b, c, d = (mpmath.mpf(e.numerator) / e.denominator
                          for e in g)
            z = tau.value()
            w = (a * z + b) / (c * z + d)
        return NumericPoint(w.real, w.imag, prec)
    raise TypeError(f"cannot act on {type(tau).__name__}")


def fixed_point(g: RatMatrix) -> CMPoint:
    """The unique fixed point in the upper half-plane of an elliptic g.

    Solves c*z^2 + (d-a)*z - b = 0 exactly; the discriminant tr^2 - 4 det is
    negative, so the root pair is complex conjugate and exactly one root has
    positive imaginary part.
    """
    if classify(g).kind is not ElementKind.ELLIPTIC:
        raise NotElliptic(f"{g} has tr^2-4det = {g.disc()}, no unique fixed point in H")
    a, b, c, d = g.int_entries()
    disc = (a + d) ** 2 - 4 * (a * d - b * c)
    m, D = squarefree_decompose(disc)
    # elliptic forces c != 0: with c = 0 the discriminant is (a-d)^2 >= 0
    x = Fraction(a - d, 2 * c)
    y = Fraction(m, 2 * c)
    if y < 0:
        y = -y
    return CMPoint(D, x, y)


def special_witness(tau: CMPoint) -> RatMatrix:
    """An elliptic integer matrix whose unique fixed point is tau.

    Companion-style matrix [[0,-C],[1,B]] of the monic minimal polynomial
    z^2 + B z + C, cleared to coprime integer entries with the lower-left
    entry kept positive.  fixed_point(special_witness(t)) round-trips
    exactly.
    """
    B, C = tau.minimal_polynomial()
    den = lcm(B.denominator, C.denominator)
    ints = [0, int(-C * den), den, int(B * den)]
    g = gcd(*ints)
    return RatMatrix(*(v // g for v in ints))
