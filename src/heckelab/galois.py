"""Mod-p image certification for elliptic curves over Q.

Frobenius data a_ell = ell + 1 - #E(F_ell) is collected by point counting
and used three ways: to exclude each class of maximal subgroup of
GL2(F_p) by characteristic-polynomial statistics, to separate a pair of
curves in the sense of Goursat (the graph case preserves traces up to
sign), and to check that generators lift from SL2(F_p) to SL2(Z/p^2).
Exclusion certificates are sound: a Surjective verdict carries, per
maximal class, a witness ell whose (a_ell mod p, ell mod p) cannot occur
inside that class.  Containment verdicts are evidence only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt

from .congruence import sl2_order
from .errors import BadDeterminant, BadReduction, NotSubdirect, OrderAmbiguous

EXHAUSTIVE_LIMIT = 10 ** 5
BSGS_LIMIT = 10 ** 7
# "auto" counts exhaustively below this prime and by BSGS from it on: the
# per-prime costs of the two cross between 250 and 350, at about 0.09 ms
# (CPython 3.11, 2-core x86-64 VM).  Above 229 the curve or its twist
# always has points that pin the group order (Mestre), so "auto" reaches
# the exhaustive fallback only if 40 random points all miss them.
BSGS_CUTOFF = 300
CERTIFIABLE_PRIMES = (5, 7, 11, 13)
LIFTING_PRIMES = (5, 7)


def primes_upto(bound):
    """Primes <= bound by sieve, ascending."""
    if bound < 2:
        return []
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p::p] = bytearray(len(flags[p * p::p]))
    return [i for i, f in enumerate(flags) if f]


@dataclass(frozen=True)
class EllipticCurve:
    """Long Weierstrass model y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6
    with exact rational coefficients and nonzero discriminant."""

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a6"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.discriminant() == 0:
            raise ValueError("singular curve: discriminant is zero")

    def b_invariants(self):
        b2 = self.a1 * self.a1 + 4 * self.a2
        b4 = 2 * self.a4 + self.a1 * self.a3
        b6 = self.a3 * self.a3 + 4 * self.a6
        b8 = (self.a1 * self.a1 * self.a6 + 4 * self.a2 * self.a6
              - self.a1 * self.a3 * self.a4 + self.a2 * self.a3 * self.a3
              - self.a4 * self.a4)
        return b2, b4, b6, b8

    def discriminant(self) -> Fraction:
        b2, b4, b6, b8 = self.b_invariants()
        return (-b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6)

    def short_model(self):
        """(A, B) with y^2 = x^3 + A x + B isomorphic to E away from 2, 3."""
        b2, b4, b6, _ = self.b_invariants()
        c4 = b2 * b2 - 24 * b4
        c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
        return -27 * c4, -54 * c6

    @cached_property
    def _int_model(self):
        """(numerator, denominator) of a1..a6 and of the short model (A, B),
        plus the discriminant's numerator: everything reduction mod ell
        reads, so the per-prime work is int arithmetic."""
        coeffs = tuple((a.numerator, a.denominator) for a in
                       (self.a1, self.a2, self.a3, self.a4, self.a6))
        short = tuple((v.numerator, v.denominator) for v in self.short_model())
        return coeffs, short, self.discriminant().numerator

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        # the dataclass hash, computed once: _a_ell hashes the curve per ell
        return hash((self.a1, self.a2, self.a3, self.a4, self.a6))

    def quadratic_twist(self, d: int) -> "EllipticCurve":
        A, B = self.short_model()
        return EllipticCurve(0, 0, 0, A * d * d, B * d ** 3)

    def __str__(self):
        return "[" + ",".join(str(a) for a in
                              (self.a1, self.a2, self.a3, self.a4, self.a6)) + "]"


def parse_curve(text: str) -> EllipticCurve:
    """Parse "[a1,a2,a3,a4,a6]" with integer or p/q entries."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"expected [a1,a2,a3,a4,a6], got {text!r}")
    parts = body[1:-1].split(",")
    if len(parts) != 5:
        raise ValueError(f"expected 5 coefficients, got {len(parts)}")
    return EllipticCurve(*(Fraction(p.strip()) for p in parts))


def _reduce_coeffs(curve, ell):
    coeffs, _, disc_num = curve._int_model
    vals = []
    for num, den in coeffs:
        if den % ell == 0:
            raise BadReduction(f"model not integral at {ell}")
        vals.append(num * pow(den, -1, ell) % ell)
    # the discriminant's denominator divides a product of the coefficient
    # denominators, so it is a unit mod ell once those are
    if disc_num % ell == 0:
        raise BadReduction(f"bad reduction at {ell}")
    return vals


def _chi(v, ell):
    # Euler criterion; 0 on 0, +-1 otherwise
    v %= ell
    if v == 0:
        return 0
    return 1 if pow(v, (ell - 1) // 2, ell) == 1 else -1


def _count_exhaustive(curve, ell):
    a1, a2, a3, a4, a6 = _reduce_coeffs(curve, ell)
    if ell == 2:
        count = 1
        for x in range(2):
            for y in range(2):
                lhs = y * y + a1 * x * y + a3 * y
                rhs = x ** 3 + a2 * x * x + a4 * x + a6
                if (lhs - rhs) % 2 == 0:
                    count += 1
        return ell + 1 - count
    # complete the square: #E = ell + 1 + sum_x chi(4x^3+b2x^2+2b4x+b6)
    b2 = (a1 * a1 + 4 * a2) % ell
    b4 = (2 * a4 + a1 * a3) % ell
    b6 = (a3 * a3 + 4 * a6) % ell
    # chi read from a table of squares: 0 at 0, 1 on squares, -1 elsewhere
    chi = [-1] * ell
    for y in range(1, (ell + 1) // 2):
        chi[y * y % ell] = 1
    chi[0] = 0
    c = 2 * b4
    return -sum([chi[(((4 * x + b2) * x + c) * x + b6) % ell]
                 for x in range(ell)])


class _ShortCurve:
    """Affine group law on y^2 = x^3 + Ax + B over F_ell, ell >= 5."""

    def __init__(self, A, B, ell):
        self.A = A % ell
        self.B = B % ell
        self.ell = ell

    def add(self, P, Q):
        ell = self.ell
        if P is None:
            return Q
        if Q is None:
            return P
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2 and (y1 + y2) % ell == 0:
            return None
        if P == Q:
            num = (3 * x1 * x1 + self.A) % ell
            den = (2 * y1) % ell
        else:
            num = (y2 - y1) % ell
            den = (x2 - x1) % ell
        lam = num * pow(den, -1, ell) % ell
        x3 = (lam * lam - x1 - x2) % ell
        return x3, (lam * (x1 - x3) - y1) % ell

    def mul(self, k, P):
        R = None
        while k:
            if k & 1:
                R = self.add(R, P)
            P = self.add(P, P)
            k >>= 1
        return R

    def random_point(self, rng):
        while True:
            x = rng.randrange(self.ell)
            v = (x * x * x + self.A * x + self.B) % self.ell
            if _chi(v, self.ell) == -1:
                continue
            y = _sqrt_mod(v, self.ell)
            return (x, y)


def _sqrt_mod(v, ell):
    """Square root mod an odd prime (Tonelli-Shanks)."""
    v %= ell
    if v == 0:
        return 0
    if ell % 4 == 3:
        return pow(v, (ell + 1) // 4, ell)
    # Tonelli-Shanks for ell = 1 mod 4
    q, s = ell - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while _chi(z, ell) != -1:
        z += 1
    m, c = s, pow(z, q, ell)
    t, r = pow(v, q, ell), pow(v, (q + 1) // 2, ell)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % ell
            i += 1
        b = pow(c, 1 << (m - i - 1), ell)
        m, c = i, b * b % ell
        t, r = t * c % ell, r * b % ell
    return r


def _annihilators(curve_ops, P, lo, hi):
    """Every m in [lo, hi] with m*P = O, by baby steps jP (0 <= j < mb)
    and giant steps (lo + k*mb)P; the group order is among them."""
    mb = isqrt(hi - lo + 1) + 1
    baby = {}
    Q = None
    for j in range(mb):
        if Q is None and j:
            # P has order j < mb: its multiples are all the annihilators
            return range(lo + (-lo) % j, hi + 1, j)
        baby[Q] = j
        Q = curve_ops.add(Q, P)
    found = []
    R = curve_ops.mul(lo, P)
    for k in range(mb + 1):
        # (lo + k*mb + j) P = O  iff  R = -jP; baby points are distinct
        target = None if R is None else (R[0], -R[1] % curve_ops.ell)
        j = baby.get(target)
        if j is not None and lo + k * mb + j <= hi:
            found.append(lo + k * mb + j)
        R = curve_ops.add(R, Q)
    return found


def _count_bsgs(curve, ell):
    """Group order via Mestre's method: N = #E is annihilated by every
    point of the curve, and 2ell+2-N by every point of a quadratic twist,
    so intersecting the annihilators of random points in the Hasse
    interval pins N.  Falls back to the exhaustive count if tiny-group
    ambiguity survives (only possible for small ell)."""
    if ell < 5:
        return _count_exhaustive(curve, ell)
    _reduce_coeffs(curve, ell)
    A, B = (num * pow(den, -1, ell) % ell for num, den in curve._int_model[1])
    d = 2
    while _chi(d, ell) != -1:
        d += 1
    E = _ShortCurve(A, B, ell)
    Etw = _ShortCurve(A * d * d, B * d ** 3, ell)
    s = isqrt(4 * ell)
    lo, hi = ell + 1 - s, ell + 1 + s
    rng = random.Random(ell * 1000003 + A * 31 + B)
    cands = set(range(lo, hi + 1))
    for attempt in range(40):
        if attempt % 2 == 0:
            cands.intersection_update(
                _annihilators(E, E.random_point(rng), lo, hi))
        else:
            cands.intersection_update(
                2 * ell + 2 - m
                for m in _annihilators(Etw, Etw.random_point(rng), lo, hi))
        if len(cands) == 1:
            return ell + 1 - cands.pop()
        if not cands:
            raise AssertionError(f"no group order left at {ell}")
    if ell <= EXHAUSTIVE_LIMIT:
        return _count_exhaustive(curve, ell)
    raise OrderAmbiguous(f"order ambiguity persisted at {ell}")


def count_points(curve: EllipticCurve, ell: int, method: str = "auto") -> int:
    """Trace of Frobenius a_ell = ell + 1 - #E(F_ell).

    method "exhaustive" sums the quadratic character over the x-line
    (ell <= 1e5); "bsgs" uses baby-step giant-step order finding
    (ell <= 1e7) and falls back to the exhaustive sum when the group order
    stays ambiguous; "auto" is exhaustive below BSGS_CUTOFF and bsgs from
    it on.  The two methods share no counting code, so each is the
    other's check.
    """
    if ell < 2:
        raise ValueError(f"ell must be a prime, got {ell}")
    if method == "auto":
        method = "exhaustive" if ell < BSGS_CUTOFF else "bsgs"
    if method == "exhaustive":
        if ell > EXHAUSTIVE_LIMIT:
            raise ValueError(f"exhaustive count limited to {EXHAUSTIVE_LIMIT}")
        a = _count_exhaustive(curve, ell)
    elif method == "bsgs":
        if ell > BSGS_LIMIT:
            raise ValueError(f"bsgs count limited to {BSGS_LIMIT}")
        a = _count_bsgs(curve, ell)
    else:
        raise ValueError(f"unknown method {method!r}")
    assert a * a <= 4 * ell, "Hasse bound violated"
    return a


@lru_cache(maxsize=65536)
def _a_ell(curve, ell):
    return count_points(curve, ell)


@dataclass(frozen=True)
class FrobeniusSample:
    curve: str
    bound: int
    samples: tuple  # ((ell, a_ell), ...) ascending in ell, good ell only

    def to_dict(self):
        return {"curve": self.curve, "bound": self.bound,
                "samples": [list(s) for s in self.samples]}


def frobenius_sample(curve: EllipticCurve, bound: int) -> FrobeniusSample:
    """a_ell for every prime of good reduction up to bound, ascending."""
    rows = []
    for ell in primes_upto(bound):
        try:
            rows.append((ell, _a_ell(curve, ell)))
        except BadReduction:
            pass
    return FrobeniusSample(str(curve), bound, tuple(rows))


# -- maximal-subgroup exclusion predicates ---------------------------------
#
# A witness (a, ell) excludes a class when no element of any subgroup in
# that class has characteristic polynomial x^2 - a x + ell mod p:
#   borel:     char poly irreducible, chi(a^2 - 4 ell) = -1
#   split:     outside-Cartan elements all have trace 0, Cartan part has
#              square discriminant, so a != 0 and chi = -1 excludes
#   nonsplit:  Cartan part has nonsquare discriminant, so a != 0 and
#              chi = +1 excludes
#   exceptional: projective element orders <= 5 force
#              u = a^2/ell in {0,1,2,4} or u^2 - 3u + 1 = 0

OBSTRUCTION_CLASSES = ("borel", "normalizer_split_cartan",
                       "normalizer_nonsplit_cartan", "exceptional")


def excludes_class(cls: str, a: int, ell: int, p: int) -> bool:
    a %= p
    chi = _chi(a * a - 4 * ell, p)
    if cls == "borel":
        return chi == -1
    if cls == "normalizer_split_cartan":
        return a != 0 and chi == -1
    if cls == "normalizer_nonsplit_cartan":
        return a != 0 and chi == 1
    if cls == "exceptional":
        u = a * a * pow(ell, -1, p) % p
        return u not in (0, 1, 2, 4) and (u * u - 3 * u + 1) % p != 0
    raise ValueError(f"unknown obstruction class {cls!r}")


@dataclass(frozen=True)
class ImageCertificate:
    p: int
    bound: int
    verdict: str
    witnesses: dict  # class -> {ell, a_mod_p, ell_mod_p} for excluded classes
    detail: dict

    def to_dict(self):
        return {"p": self.p, "bound": self.bound, "verdict": self.verdict,
                "witnesses": self.witnesses, "detail": self.detail}


def _borel_patterns(samples, p):
    """Exponents i with a_ell = ell^i + ell^(1-i) mod p across all samples
    (the diagonal-character pattern of an isogeny kernel)."""
    good = []
    for i in range(p - 1):
        if all((a - pow(ell, i, p) - pow(ell, (1 - i) % (p - 1), p)) % p == 0
               for ell, a in samples):
            good.append(i)
    return good


def certify_mod_p_image(curve: EllipticCurve, p: int,
                        bound: int) -> ImageCertificate:
    """Certify the mod-p image of the Galois action on p-torsion.

    Surjective is sound: every maximal-subgroup class carries a witness
    and the sampled determinants ell mod p generate the full unit group.
    Containment verdicts summarize the evidence pattern and are not
    proofs of containment.
    """
    return _certify_image(curve, p, bound)[0]


def _certify_image(curve, p, bound):
    """The certificate and the (ell, a_ell) rows, ell != p, it rests on
    (none when p divides the discriminant)."""
    if p not in CERTIFIABLE_PRIMES:
        raise ValueError(f"p must be in {CERTIFIABLE_PRIMES}, got {p}")
    if bound < 10 ** 3:
        raise ValueError(f"bound must be at least 1000, got {bound}")
    disc = curve.discriminant()
    if (disc.numerator * disc.denominator) % p == 0:
        reason = f"p = {p} divides the discriminant"
        return ImageCertificate(p, bound, "Inconclusive", {},
                                {"reason": reason}), []
    rows = [(ell, a) for ell, a in frobenius_sample(curve, bound).samples
            if ell != p]
    return _image_from_rows(p, bound, rows), rows


def _image_from_rows(p, bound, rows):
    witnesses = {}
    for ell, a in rows:
        for cls in OBSTRUCTION_CLASSES:
            if cls not in witnesses and excludes_class(cls, a, ell, p):
                witnesses[cls] = {"ell": ell, "a_mod_p": a % p,
                                  "ell_mod_p": ell % p}
        if len(witnesses) == len(OBSTRUCTION_CLASSES):
            break
    units = set()
    for ell, _ in rows:
        units.add(ell % p)
    closure = {1}
    frontier = list(closure)
    while frontier:
        g = frontier.pop()
        for u in units:
            v = g * u % p
            if v not in closure:
                closure.add(v)
                frontier.append(v)
    det_full = len(closure) == p - 1
    detail = {"samples": len(rows), "det_coverage": det_full}
    if len(witnesses) == len(OBSTRUCTION_CLASSES) and det_full:
        return ImageCertificate(p, bound, "Surjective", witnesses, detail)
    if "borel" not in witnesses:
        pats = _borel_patterns(rows, p)
        if pats:
            i = pats[0]
            detail["borel_pattern"] = f"a_ell = ell^{i} + ell^{(1 - i) % (p - 1)} mod {p}"
            return ImageCertificate(p, bound, "ContainedInBorel", witnesses,
                                    detail)
        return ImageCertificate(p, bound, "Inconclusive", witnesses, detail)
    if "normalizer_split_cartan" not in witnesses:
        return ImageCertificate(p, bound, "ContainedInNormalizerCartan(split)",
                                witnesses, detail)
    if "normalizer_nonsplit_cartan" not in witnesses:
        return ImageCertificate(p, bound,
                                "ContainedInNormalizerCartan(nonsplit)",
                                witnesses, detail)
    if "exceptional" not in witnesses:
        return ImageCertificate(p, bound, "ExceptionalPossible", witnesses,
                                detail)
    return ImageCertificate(p, bound, "Inconclusive", witnesses, detail)


@dataclass(frozen=True)
class GoursatCertificate:
    p: int
    bound: int
    verdict: str
    witness: dict | None  # {ell, a1_mod_p, a2_mod_p} when FullProduct
    factor_verdicts: tuple

    def to_dict(self):
        return {"p": self.p, "bound": self.bound, "verdict": self.verdict,
                "witness": self.witness,
                "factor_verdicts": list(self.factor_verdicts)}


def certify_goursat_pair(curve1: EllipticCurve, curve2: EllipticCurve,
                         p: int, bound: int) -> GoursatCertificate:
    """FullProduct when both mod-p images are certified surjective and a
    good ell separates the traces mod p beyond sign.  Graphs of
    isomorphisms between the factors preserve traces up to sign, so such
    an ell rules out every proper fiber product."""
    c1, rows1 = _certify_image(curve1, p, bound)
    c2, rows2 = _certify_image(curve2, p, bound)
    factors = (c1.verdict, c2.verdict)
    if c1.verdict != "Surjective" or c2.verdict != "Surjective":
        return GoursatCertificate(p, bound, "Inconclusive", None, factors)
    s1, s2 = dict(rows1), dict(rows2)
    matched = negated = 0
    for ell in sorted(set(s1) & set(s2)):
        a, b = s1[ell] % p, s2[ell] % p
        if a != b and a != (-b) % p:
            witness = {"ell": ell, "a1_mod_p": a, "a2_mod_p": b}
            return GoursatCertificate(p, bound, "FullProduct", witness,
                                      factors)
        matched += a == b
        negated += a == (-b) % p
    return GoursatCertificate(p, bound, "GraphPossible",
                              {"trace_pattern": {"equal": matched,
                                                 "negated": negated}},
                              factors)


# -- lifting mod p^2 --------------------------------------------------------

def _mat_mul_mod(x, y, m):
    return ((x[0] * y[0] + x[1] * y[2]) % m, (x[0] * y[1] + x[1] * y[3]) % m,
            (x[2] * y[0] + x[3] * y[2]) % m, (x[2] * y[1] + x[3] * y[3]) % m)


def _closure(gens, m):
    seen = {(1, 0, 0, 1)}
    frontier = [(1, 0, 0, 1)]
    while frontier:
        g = frontier.pop()
        for h in gens:
            v = _mat_mul_mod(g, h, m)
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def _flatten(mat, m):
    if hasattr(mat, "entries"):
        vals = mat.entries()
    elif len(mat) == 2:
        vals = (mat[0][0], mat[0][1], mat[1][0], mat[1][1])
    else:
        vals = tuple(mat)
    vals = tuple(int(v) % m for v in vals)
    if (vals[0] * vals[3] - vals[1] * vals[2]) % m != 1:
        raise BadDeterminant(f"determinant not 1 mod {m}: {vals}")
    return vals


@dataclass(frozen=True)
class LiftingReport:
    p: int
    order: int
    full: bool
    generates_mod_p: bool

    def to_dict(self):
        return {"p": self.p, "order": self.order, "full": self.full,
                "generates_mod_p": self.generates_mod_p}


def standard_lifts(p: int):
    """The inversion and translation generators read mod p^2."""
    return [(0, p * p - 1, 1, 0), (1, 1, 0, 1)]


def lifting_check(p: int, generators) -> LiftingReport:
    """Enumerate the subgroup of SL2(Z/p^2) generated; full means all of
    it.  generates_mod_p records whether the reductions already generate
    SL2(F_p); a kernel-pattern generating set (I + p*M) fails both."""
    if p not in LIFTING_PRIMES:
        raise ValueError(f"p must be in {LIFTING_PRIMES}, got {p}")
    m = p * p
    gens = [_flatten(g, m) for g in generators]
    group = _closure(gens, m)
    mod_p = _closure([tuple(v % p for v in g) for g in gens], p)
    return LiftingReport(p, len(group), len(group) == sl2_order(m),
                         len(mod_p) == sl2_order(p))


# -- Goursat decomposition of explicit subdirect products -------------------

@dataclass(frozen=True)
class GoursatDecomposition:
    kind: str  # "full" or "graph"
    n1: tuple
    n2: tuple
    quotient_order: int
    iso: dict  # coset representative of G1/N1 -> representative of G2/N2

    def to_dict(self):
        return {"kind": self.kind, "n1_order": len(self.n1),
                "n2_order": len(self.n2),
                "quotient_order": self.quotient_order}


def goursat_decompose(pairs, fmg1, fmg2) -> GoursatDecomposition:
    """Decompose a subgroup H of G1 x G2 given as explicit pairs.

    Returns the full product, or the kernels N1 = ker(pi2|H),
    N2 = ker(pi1|H) together with the graph isomorphism G1/N1 = G2/N2.
    Raises NotSubdirect when a projection misses part of a factor.
    """
    H = set(pairs)
    g1_all = set(fmg1.elements)
    g2_all = set(fmg2.elements)
    if {a for a, _ in H} != g1_all or {b for _, b in H} != g2_all:
        raise NotSubdirect("projections of H do not cover both factors")
    e1 = fmg1.identity
    e2 = fmg2.identity
    n1 = frozenset(a for a, b in H if b == e2)
    n2 = frozenset(b for a, b in H if a == e1)
    if len(n1) == len(g1_all) and len(n2) == len(g2_all):
        if len(H) != len(g1_all) * len(g2_all):
            raise AssertionError("kernel orders inconsistent with |H|")
        return GoursatDecomposition("full", tuple(sorted(n1)),
                                    tuple(sorted(n2)),
                                    1, {})
    def coset1(g):
        return min(fmg1.mul(g, n) for n in n1)

    def coset2(g):
        return min(fmg2.mul(g, n) for n in n2)

    iso = {}
    for a, b in H:
        ca, cb = coset1(a), coset2(b)
        if iso.setdefault(ca, cb) != cb:
            raise AssertionError("H is not the graph of a map on cosets")
    if len(set(iso.values())) != len(iso):
        raise AssertionError("coset map is not injective")
    q = len(g1_all) // len(n1)
    if len(iso) != q or len(g2_all) // len(n2) != q:
        raise AssertionError("quotient sizes disagree")
    if len(H) != len(n1) * len(n2) * q:
        raise AssertionError("fiber product order law fails")
    # the coset bijection must also be multiplicative
    hl = sorted(H)
    if len(hl) ** 2 > 10 ** 6:
        rng = random.Random(len(hl))
        pairs_iter = ((hl[rng.randrange(len(hl))], hl[rng.randrange(len(hl))])
                      for _ in range(10 ** 4))
    else:
        pairs_iter = ((x, y) for x in hl for y in hl)
    for (a, b), (c, d) in pairs_iter:
        if iso[coset1(fmg1.mul(a, c))] != coset2(fmg2.mul(b, d)):
            raise AssertionError("coset map is not a homomorphism")
    return GoursatDecomposition("graph", tuple(sorted(n1)), tuple(sorted(n2)),
                                q, iso)
