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

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt, lcm

from .congruence import sl2_order, subgroup_order
from .errors import BadDeterminant, BadReduction, OrderAmbiguous

EXHAUSTIVE_LIMIT = 10 ** 5
BSGS_LIMIT = 10 ** 7
# "auto" counts exhaustively below this prime and by BSGS from it on: per
# prime, the two methods alternating on each (curve, ell) (three runs of
# tools/bench_count.py --crossover --rounds 15; CPython 3.11, 2-core
# x86-64 VM), bsgs costs 1.45-1.46 times the exhaustive sum in [80, 100),
# 1.08-1.11 in [100, 110), 0.90-0.93 in [110, 120) and 0.97-0.99 in
# [120, 150); counts are exact either way.
# Above 229, E or its twist has points that pin a_ell (Mestre); on 80
# seeded curves bsgs fell back to the exhaustive sum only at ell <= 23.
BSGS_CUTOFF = 110
CERTIFIABLE_PRIMES = (5, 7, 11, 13)


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


def _invariants(a1, a2, a3, a4, a6):
    """(c4, c6, discriminant) of an integral Weierstrass model."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return (b2 * b2 - 24 * b4, -b2 ** 3 + 36 * b2 * b4 - 216 * b6,
            -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6)


class EllipticCurve(namedtuple("EllipticCurve", "a1 a2 a3 a4 a6")):
    """Long Weierstrass model y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6
    with exact rational coefficients and nonzero discriminant.

    With u the lcm of the coefficients' denominators, a_i u^i are the
    a-invariants of an integral model isomorphic to E over Q (x = X/u^2,
    y = Y/u^3).  It is built once, in ints, with its c4, c6 and
    discriminant, and every reduction mod ell reads it.  No __slots__:
    _integral and the cached hash live in the instance __dict__."""

    def __new__(cls, a1, a2, a3, a4, a6):
        self = tuple.__new__(cls, map(Fraction, (a1, a2, a3, a4, a6)))
        u = lcm(*(a.denominator for a in self))
        model = tuple(a.numerator * (u ** i // a.denominator)
                      for a, i in zip(self, (1, 2, 3, 4, 6)))
        c4, c6, disc = _invariants(*model)
        if disc == 0:
            raise ValueError("singular curve: discriminant is zero")
        self._integral = (u, model, c4, c6, disc)
        return self

    def discriminant(self) -> Fraction:
        u, _, _, _, disc = self._integral
        return Fraction(disc, u ** 12)

    def short_model(self):
        """(A, B) with y^2 = x^3 + A x + B isomorphic to E away from 2, 3."""
        u, _, c4, c6, _ = self._integral
        return Fraction(-27 * c4, u ** 4), Fraction(-54 * c6, u ** 6)

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        # computed once: _a_ell hashes the curve per ell, _canonical per sample
        return tuple.__hash__(self)

    def quadratic_twist(self, d: int) -> "EllipticCurve":
        A, B = self.short_model()
        return EllipticCurve(0, 0, 0, A * d * d, B * d ** 3)

    def __str__(self):
        return "[" + ",".join(map(str, self)) + "]"


def parse_curve(text: str) -> EllipticCurve:
    """Parse "[a1,a2,a3,a4,a6]" with integer or p/q entries."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"expected [a1,a2,a3,a4,a6], got {text!r}")
    parts = body[1:-1].split(",")
    if len(parts) != 5:
        raise ValueError(f"expected 5 coefficients, got {len(parts)}")
    coeffs = []
    for part in parts:
        try:
            coeffs.append(Fraction(part.strip()))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"coefficient {part.strip()!r} of {text!r} is "
                             f"not a rational number")
    return EllipticCurve(*coeffs)


def _good_model(curve, ell):
    """The integral a-invariants and the integral short model
    (-27 c4, -54 c6), once ell is found a prime of good reduction."""
    u, model, c4, c6, disc = curve._integral
    if u % ell == 0:
        raise BadReduction(f"model not integral at {ell}")
    # disc is u^12 times E's discriminant, and u is a unit mod ell
    if disc % ell == 0:
        raise BadReduction(f"bad reduction at {ell}")
    return model, (-27 * c4, -54 * c6)


def _chi(v, ell):
    # Euler criterion; 0 on 0, +-1 otherwise
    v %= ell
    if v == 0:
        return 0
    return 1 if pow(v, (ell - 1) // 2, ell) == 1 else -1


def _count_exhaustive(curve, ell):
    a1, a2, a3, a4, a6 = (a % ell for a in _good_model(curve, ell)[0])
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


def _add(P, Q, A, ell):
    """P + Q on y^2 = x^3 + Ax + B over F_ell, ell >= 5; None is O."""
    if P is None or Q is None:
        return P or Q
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % ell == 0:
            return None
        lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, ell) % ell
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, ell) % ell
    x3 = (lam * lam - x1 - x2) % ell
    return x3, (lam * (x1 - x3) - y1) % ell


def _mul(k, P, A, ell):
    """kP for k >= 0, left to right over the bits of k."""
    R = None
    for bit in bin(k)[2:]:
        R = _add(R, R, A, ell)
        if bit == "1":
            R = _add(R, P, A, ell)
    return R


def _stride_mul(n, W, steps, A, ell):
    """nP, given W = wP and steps[j] = jP for 0 <= j <= m, w = 2m + 1.

    With n = qw + r, nP = qW + rP, and rP is a baby step when r <= m and
    W minus the baby step (w - r)P otherwise, so the ladder runs over the
    bits of q, not of n."""
    w = 2 * len(steps) - 1
    q, r = divmod(n, w)
    if r < len(steps):
        R = steps[r]
    else:
        x, y = steps[w - r]
        R = _add(W, (x, -y % ell), A, ell)
    return _add(_mul(q, W, A, ell), R, A, ell)


def _annihilators(P, A, ell, c, s):
    """Every a in [-s, s] with (c - a)P = O.

    Baby steps jP, 0 < j <= m, are keyed by x, so one entry serves +-jP;
    giant points (c - t)P, t = -Kw, ..., Kw in steps of w = 2m + 1, meet
    each a = t + e, |e| <= m, in one lookup for eP.  If P has order below
    2m, a baby step is O or repeats an x, and the order gives the answer;
    at order 2m, mP has y = 0 and matches both signs."""
    m = isqrt(s) + 1
    baby = {}
    steps = [None]  # steps[j] = jP
    Q = P
    for j in range(1, m + 1):
        if Q is None or Q[0] in baby:
            # jP = O, or jP = -iP with i < j: P has order j, or i + j
            order = j if Q is None else baby[Q[0]] + j
            return range(-s + (c + s) % order, s + 1, order)
        baby[Q[0]] = j
        steps.append(Q)
        Q = _add(Q, P, A, ell)
    w = 2 * m + 1
    W = _add(Q, steps[m], A, ell)  # (m + 1)P + mP
    back = None if W is None else (W[0], -W[1] % ell)
    K = (s + m) // w
    G = _stride_mul(c + K * w, W, steps, A, ell)
    found = []
    for t in range(-K * w, K * w + 1, w):
        if G is None:
            found.append(t)
        elif G[0] in baby:
            j = baby[G[0]]
            y = steps[j][1]
            if y == G[1]:
                found.append(t + j)
            if y == -G[1] % ell:
                found.append(t - j)
        G = _add(G, back, A, ell)
    return [a for a in found if -s <= a <= s]


def _count_bsgs(curve, ell):
    """Trace a_ell by the Shanks-Mestre method (Cohen, GTM 138, 7.4).

    For x with v = x^3 + Ax + B != 0, P = (xv, v^2) lies on
    Y^2 = X^3 + Av^2 X + Bv^3, which is E when v is a square mod ell and
    its quadratic twist otherwise, so (ell + 1 - chi(v) a)P = O.  These
    points, x = 0, 1, 2, ..., narrow the a in the Hasse interval down to
    a_ell without a square root.  Falls back to the exhaustive count if
    ambiguity survives x = 0, ..., 39."""
    if ell < 5:
        return _count_exhaustive(curve, ell)
    A, B = (v % ell for v in _good_model(curve, ell)[1])
    c, s = ell + 1, isqrt(4 * ell)
    cands = None
    for x in range(min(ell, 40)):
        v = ((x * x + A) * x + B) % ell
        if v == 0:
            continue
        sign = _chi(v, ell)
        hits = {sign * a for a in _annihilators(
            (x * v % ell, v * v % ell), A * v * v % ell, ell, c, s)}
        cands = hits if cands is None else cands & hits
        if len(cands) == 1:
            return cands.pop()
        if not cands:
            raise AssertionError(f"no trace left at {ell}")
    if ell <= EXHAUSTIVE_LIMIT:
        return _count_exhaustive(curve, ell)
    raise OrderAmbiguous(f"order ambiguity persisted at {ell}")


def count_points(curve: EllipticCurve, ell: int, method: str = "auto") -> int:
    """Trace of Frobenius a_ell = ell + 1 - #E(F_ell).

    method "exhaustive" sums the quadratic character over the x-line
    (ell <= 1e5); "bsgs" finds a_ell by baby-step giant-step on points
    (xv, v^2), v = x^3 + Ax + B, each on E or its quadratic twist as v is
    a square or not (ell <= 1e7), and falls back to the exhaustive sum
    when the group order stays ambiguous;
    "auto" is exhaustive below BSGS_CUTOFF and bsgs from it on.  The two
    methods share no counting code, so each is the other's check.
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
    if a * a > 4 * ell:
        raise AssertionError(f"a_{ell} = {a} violates the Hasse bound")
    return a


@lru_cache(maxsize=65536)
def _a_ell(curve, ell):
    """a_ell, or None where the model has bad reduction; either is cached."""
    try:
        return count_points(curve, ell)
    except BadReduction:
        return None


@lru_cache(maxsize=256)
def _canonical(curve):
    # the first of equal curves seen: _a_ell then matches it by identity,
    # not by comparing five Fractions at every ell
    return curve


@lru_cache(maxsize=8)
def _primes(bound):
    return tuple(primes_upto(bound))


# samples: ((ell, a_ell), ...) ascending in ell, good ell only
FrobeniusSample = namedtuple("FrobeniusSample", "curve bound samples")


def frobenius_sample(curve: EllipticCurve, bound: int) -> FrobeniusSample:
    """a_ell for every prime of good reduction up to bound, ascending.

    A curve equal to one sampled before (the same text parsed again) is
    matched to it once per call, so each cached trace is found by identity.
    A bound above BSGS_LIMIT is refused before any prime is sieved."""
    if bound > BSGS_LIMIT:
        raise ValueError(f"bound must be at most {BSGS_LIMIT}, got {bound}")
    curve = _canonical(curve)
    rows = tuple((ell, a) for ell in _primes(bound)
                 if (a := _a_ell(curve, ell)) is not None)
    return FrobeniusSample(str(curve), bound, rows)


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
# the verdict when a class after borel is the first that no trace excludes
_CONTAINED = {"normalizer_split_cartan": "ContainedInNormalizerCartan(split)",
              "normalizer_nonsplit_cartan":
                  "ContainedInNormalizerCartan(nonsplit)",
              "exceptional": "ExceptionalPossible"}


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


# witnesses: class -> {ell, a_mod_p, ell_mod_p} for excluded classes
ImageCertificate = namedtuple("ImageCertificate",
                              "p bound verdict witnesses detail")


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
    # u -> diag(u, 1/u) embeds F_p^* in SL2(F_p): the sampled ell mod p
    # generate the units iff their images generate a group of order p - 1
    units = {ell % p for ell, _ in rows}
    det_full = subgroup_order([(u, 0, 0, pow(u, -1, p)) for u in units],
                              p) == p - 1
    detail = {"samples": len(rows), "det_coverage": det_full}
    left = [c for c in OBSTRUCTION_CLASSES if c not in witnesses]
    if not left:
        verdict = "Surjective" if det_full else "Inconclusive"
    elif left[0] != "borel":
        verdict = _CONTAINED[left[0]]
    elif pats := _borel_patterns(rows, p):
        i = pats[0]
        detail["borel_pattern"] = f"a_ell = ell^{i} + ell^{(1 - i) % (p - 1)} mod {p}"
        verdict = "ContainedInBorel"
    else:
        verdict = "Inconclusive"
    return ImageCertificate(p, bound, verdict, witnesses, detail)


# witness: {ell, a1_mod_p, a2_mod_p} when FullProduct
GoursatCertificate = namedtuple("GoursatCertificate",
                                "p bound verdict witness factor_verdicts")


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

def _flatten(mat, m):
    if len(mat) == 2:
        vals = (mat[0][0], mat[0][1], mat[1][0], mat[1][1])
    else:
        vals = tuple(mat)
    vals = tuple(int(v) % m for v in vals)
    if (vals[0] * vals[3] - vals[1] * vals[2]) % m != 1:
        raise BadDeterminant(f"determinant not 1 mod {m}: {vals}")
    return vals


LiftingReport = namedtuple("LiftingReport", "p order full generates_mod_p")


def standard_lifts(p: int):
    """The inversion and translation generators read mod p^2."""
    return [(0, p * p - 1, 1, 0), (1, 1, 0, 1)]


def lifting_check(p: int, generators) -> LiftingReport:
    """The order of the subgroup H of SL2(Z/p^2) generated; full means all
    of it.  generates_mod_p records whether the reductions already generate
    SL2(F_p); a kernel-pattern generating set (I + p*M) fails both.

    Both orders come from `congruence.subgroup_order`, which finds |H| by
    Schreier-Sims over the congruence kernels, one layer mod p and one
    mod p^2, without listing H.
    """
    if p not in CERTIFIABLE_PRIMES:
        raise ValueError(f"p must be in {CERTIFIABLE_PRIMES}, got {p}")
    m = p * p
    gens = [_flatten(g, m) for g in generators]
    order = subgroup_order(gens, m)
    return LiftingReport(p, order, order == sl2_order(m),
                         subgroup_order(gens, p) == sl2_order(p))
