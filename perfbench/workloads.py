"""Seeded request generators for the three benchmark workloads.

Everything here is the benchmark's own integer arithmetic: discriminants
from b-invariants, Frobenius traces by a character sum over small primes,
and the maximal-subgroup exclusion rules.  Nothing imports heckelab, so
the program under test never chooses its own inputs.

A workload is a stream of rounds.  A round is a fixed list of slots (one
request kind at one size), shuffled and filled with fresh seed-drawn
inputs.  Runs always execute whole rounds, so every run holds the same
mix of request costs whatever its length.  Rounds have an odd number of
slots and the costliest slots come in groups (four goursat checks at the
top of frobenius-cold, three MOD2 checks in modular-cold) as do the
middle ones,
so the median and the tail percentile fall inside a group of like
requests rather than on the gap between two groups.
"""

import random
from fractions import Fraction
from math import gcd

CERT_PRIMES = (5, 7, 11, 13)
SCREEN_BOUND = 100  # traces below this are computed here, per curve


def primes_upto(bound):
    if bound < 2:
        return []
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(bound ** 0.5) + 1):
        if flags[p]:
            flags[p * p::p] = bytearray(len(flags[p * p::p]))
    return [i for i, f in enumerate(flags) if f]


SMALL_PRIMES = primes_upto(SCREEN_BOUND)


def squarefree(n):
    return n >= 1 and all(n % (p * p) for p in range(2, int(n ** 0.5) + 1))


def psi(n):
    """Hecke coset count n * prod_{p | n} (1 + 1/p)."""
    out, m = n, n
    for p in primes_upto(n):
        if m % p == 0:
            out = out // p * (p + 1)
    return out


def sl2_order(N):
    """|SL2(Z/N)| = N^3 * prod_{p | N} (1 - 1/p^2)."""
    out = N ** 3
    for p in primes_upto(N):
        if N % p == 0:
            out = out // (p * p) * (p * p - 1)
    return out


# -- elliptic curves --------------------------------------------------------

def discriminant(a1, a2, a3, a4, a6):
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def legendre(v, p):
    v %= p
    if v == 0:
        return 0
    return 1 if pow(v, (p - 1) // 2, p) == 1 else -1


def trace_of_frobenius(coeffs, ell):
    """a_ell = ell + 1 - #E(F_ell) for an integral model with good
    reduction at ell: points by brute force at 2, by the character sum of
    the completed square elsewhere."""
    a1, a2, a3, a4, a6 = (c % ell for c in coeffs)
    if ell == 2:
        affine = sum(1 for x in range(2) for y in range(2)
                     if (y * y + a1 * x * y + a3 * y
                         - x ** 3 - a2 * x * x - a4 * x - a6) % 2 == 0)
        return ell - affine
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    squares = {x * x % ell for x in range(1, ell)}
    total = 0
    for x in range(ell):
        v = (((4 * x + b2) * x + 2 * b4) * x + b6) % ell
        if v:
            total += 1 if v in squares else -1
    return -total


def excluded_classes(a, ell, p):
    """Maximal-subgroup classes of GL2(F_p) that the pair (a_ell, ell)
    rules out, by the characteristic polynomial x^2 - a x + ell."""
    a %= p
    chi = legendre(a * a - 4 * ell, p)
    u = a * a * pow(ell, -1, p) % p
    out = set()
    if chi == -1:
        out.add("borel")
        if a:
            out.add("normalizer_split_cartan")
    if a and chi == 1:
        out.add("normalizer_nonsplit_cartan")
    if u not in (0, 1, 2, 4) and (u * u - 3 * u + 1) % p:
        out.add("exceptional")
    return out


CLASSES = ("borel", "normalizer_split_cartan", "normalizer_nonsplit_cartan",
           "exceptional")


class Curve:
    """An integral Weierstrass model with its small-prime traces."""

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        self.disc = discriminant(*coeffs)
        self.text = "[" + ",".join(str(c) for c in coeffs) + "]"
        self.traces = {ell: trace_of_frobenius(coeffs, ell)
                       for ell in SMALL_PRIMES if self.disc % ell}

    def witnesses(self, p):
        """First excluding (ell, a) per class among small good ell != p, or
        None when some class is not excluded below SCREEN_BOUND."""
        found = {}
        for ell, a in self.traces.items():
            if ell == p:
                continue
            for cls in excluded_classes(a, ell, p) - found.keys():
                found[cls] = {"ell": ell, "a_mod_p": a % p,
                              "ell_mod_p": ell % p}
        return found if len(found) == len(CLASSES) else None


def separating_prime(c1, c2, p):
    """First small ell, good for both and != p, with a1 != +-a2 mod p."""
    for ell in SMALL_PRIMES:
        if ell == p or ell not in c1.traces or ell not in c2.traces:
            continue
        a, b = c1.traces[ell] % p, c2.traces[ell] % p
        if a != b and a != (-b) % p:
            return {"ell": ell, "a1_mod_p": a, "a2_mod_p": b}
    return None


class CurveSource:
    """Distinct random curves; certified() only returns curves whose
    mod-p images the small-prime traces already prove surjective."""

    def __init__(self, rng):
        self.rng = rng
        self.used = set()

    def draw(self):
        rng = self.rng
        while True:
            coeffs = (rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1),
                      rng.randint(-60, 60), rng.randint(-60, 60))
            if coeffs in self.used or discriminant(*coeffs) == 0:
                continue
            self.used.add(coeffs)
            return Curve(coeffs)

    def certified(self, primes, avoid=()):
        while True:
            c = self.draw()
            if all(c.disc % p and c.witnesses(p) for p in primes) and all(
                    separating_prime(c, o, p) for o in avoid for p in primes):
                return c


# -- request constructors ---------------------------------------------------

def _req(kind, argv, **expect):
    return {"kind": kind, "argv": [str(a) for a in argv], "expect": expect}


def frobenius_req(curve, upto):
    return _req("frobenius", ["frobenius", curve.text, "--upto", upto],
                curve=curve.coeffs, upto=upto, traces=curve.traces)


def image_req(curve, p, upto):
    return _req("image", ["image", curve.text, "--p", p, "--upto", upto],
                curve=curve.coeffs, p=p, upto=upto,
                witnesses=curve.witnesses(p))


def goursat_req(c1, c2, p, upto):
    return _req("goursat", ["goursat", c1.text, c2.text, "--p", p,
                            "--upto", upto],
                curves=[c1.coeffs, c2.coeffs], p=p, upto=upto,
                witness=separating_prime(c1, c2, p))


def types_curve_req(curves, p, upto):
    argv = ["types"]
    for c in curves:
        argv += ["--curve", c.text]
    return _req("types-curve", argv + ["--level", p, "--upto", upto],
                curves=[c.coeffs for c in curves], level=p, upto=upto)


def _word(rng, length):
    """Random word in S, T, T^-1 as an integer matrix."""
    gens = (((0, -1), (1, 0)), ((1, 1), (0, 1)), ((1, -1), (0, 1)))
    m = ((1, 0), (0, 1))
    for _ in range(length):
        g = rng.choice(gens)
        m = ((m[0][0] * g[0][0] + m[0][1] * g[1][0],
              m[0][0] * g[0][1] + m[0][1] * g[1][1]),
             (m[1][0] * g[0][0] + m[1][1] * g[1][0],
              m[1][0] * g[0][1] + m[1][1] * g[1][1]))
    return [list(m[0]), list(m[1])]


def types_gens_req(rng, level):
    gens = [_word(rng, rng.randint(2, 6)) for _ in range(2)]
    text = str(gens).replace(" ", "")
    return _req("types-gens", ["types", "--gens", text, "--level", level],
                gens=gens, level=level)


def _point(rng, lo, hi):
    """A point of the upper half-plane with lo <= Im < hi."""
    return round(rng.uniform(-2.0, 2.0), 4), round(rng.uniform(lo, hi), 4)


def _cm_point(rng):
    """x + y*sqrt(D) with D < 0 squarefree and y > 0, as exact rationals.

    The primitive integer form A t^2 + B t + C of the point has
    discriminant at most 144 in size, so its reduced imaginary part is at
    most 6 and j there stays small enough for the SP tolerance."""
    while True:
        D = -rng.randint(1, 40)
        x = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        y = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        if not squarefree(-D):
            continue
        B, C = -2 * x, x * x - y * y * D
        den = B.denominator * C.denominator // gcd(B.denominator, C.denominator)
        A, B, C = den, int(B * den), int(C * den)
        g = gcd(gcd(A, B), C)
        if (4 * A * C - B * B) // (g * g) <= 144:
            return D, x, y


def _complex_text(re, im):
    return f"{re}{'+' if im >= 0 else '-'}{abs(im)}i"


# -- workloads --------------------------------------------------------------

# n drawn per slot from a set sharing one psi(n), so the slot's
# disjointness work (psi^2 pairs) does not depend on the seed; the three
# psi-24 slots sit in the middle of the round's costs and set its median
HECKE_SLOTS = ((2, 3, 5, 7, 11), (14, 15, 23), (14, 15, 23), (14, 15, 23),
               (30, 46))  # psi 3-12, 24, 24, 24, 72


# bounds per slot.  goursat counts on one thread; frobenius and image
# count on the CLI's default pool of os.cpu_count() threads, whose GIL
# hand-offs slow down far more when the host steals CPU.  The median and
# the tail therefore sit on goursat slots (three at 1800, then the four
# costliest at 2100), which keeps them steady across host load, and the
# tail stays among like requests even when a slow host fits only three
# rounds into a run.
FROBENIUS_UPTO = (1000, 2000)
IMAGE_UPTO = (1000, 2000)
GOURSAT_UPTO = (1800, 1800, 1800, 2100, 2100, 2100, 2100)


def _frobenius_cold(rng, curves):
    out = [frobenius_req(curves.certified(()), upto)
           for upto in FROBENIUS_UPTO]
    for upto in IMAGE_UPTO:
        p = rng.choice(CERT_PRIMES)
        out.append(image_req(curves.certified((p,)), p, upto))
    for upto in GOURSAT_UPTO:
        p = rng.choice(CERT_PRIMES)
        a = curves.certified((p,))
        out.append(goursat_req(a, curves.certified((p,), avoid=(a,)), p,
                               upto))
    return out


def _modular_cold(rng, curves):
    out = [_req("modpoly", ["modpoly", n], n=n) for n in (2, 3)]
    for n in map(rng.choice, HECKE_SLOTS):
        out.append(_req("hecke-cosets", ["hecke-cosets", n], n=n))
    for lo, hi in ((0.01, 0.06), (0.1, 0.4), (0.4, 2.5)):  # near the axis up
        re, im = _point(rng, lo, hi)
        out.append(_req("j", ["j", "--", _complex_text(re, im)],
                        tau=[re, im]))
    for n in (2, 3):
        seed = rng.randrange(10 ** 6)
        out.append(_req("mod1", ["axiom", "mod1", "--n", n, "--seed", seed],
                        n=n, seed=seed))
    for n in (2, 3, rng.choice((2, 3))):
        while True:  # stay clear of the ramified values 0 and 1728
            mag = 10 ** rng.uniform(1, 5)
            re, im = (round(mag * rng.uniform(-1, 1), 2),
                      round(mag * rng.uniform(-1, 1), 2))
            if abs(complex(re, im)) > 5 and abs(complex(re - 1728, im)) > 5:
                break
        out.append(_req("mod2", ["axiom", "mod2", "--n", n,
                                 f"--X0={_complex_text(re, im)}"],
                        n=n, X0=[re, im]))
    for _ in range(2):
        D, x, y = _cm_point(rng)
        out.append(_req("sp", ["axiom", "sp", "--D", D, f"--x={x}",
                               f"--y={y}"], D=D, x=str(x), y=str(y)))
    D, x, y = _cm_point(rng)
    out.append(_req("special-point", ["special", "point", "--D", D,
                                      f"--x={x}", f"--y={y}"],
                    D=D, x=str(x), y=str(y)))
    while True:
        m = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)]
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] > 0:
            break
    out.append(_req("special-matrix", ["special", "matrix", "--m",
                                       str(m).replace(" ", "")], m=m))
    return out


class _GroupsWarm:
    """A few certified curves drawn once per run; every round reuses them,
    so the in-process Frobenius cache serves all but the first touches."""

    UPTO = 2000

    def __init__(self, rng, curves):
        self.pool = []
        for _ in range(3):
            self.pool.append(curves.certified(CERT_PRIMES, avoid=self.pool))

    def __call__(self, rng, curves):
        c = self.pool
        out = [_req("lifting", ["lifting", "--p", p], p=p) for p in (5, 7)]
        for levels in ((12, 13, 14), (21, 22, 24), (27, 28, 30)):
            out.append(types_gens_req(rng, rng.choice(levels)))
        N = rng.randint(2, 12)
        out.append(_req("sf", ["axiom", "sf", "--N", N], N=N))
        for _ in range(2):
            out.append(image_req(rng.choice(c), rng.choice(CERT_PRIMES),
                                 self.UPTO))
        a, b = rng.sample(c, 2)
        out.append(goursat_req(a, b, rng.choice(CERT_PRIMES), self.UPTO))
        out.append(types_curve_req([rng.choice(c)], rng.choice(CERT_PRIMES),
                                   self.UPTO))
        out.append(types_curve_req(rng.sample(c, 2), rng.choice(CERT_PRIMES),
                                   self.UPTO))
        return out


# name -> (process model, factory(rng, curves) returning the round maker)
WORKLOADS = {
    "frobenius-cold": ("cold", lambda rng, curves: _frobenius_cold),
    "modular-cold": ("cold", lambda rng, curves: _modular_cold),
    "groups-warm": ("warm", _GroupsWarm),
}


def rounds(name, seed):
    """Endless stream of shuffled rounds for workload `name`."""
    rng = random.Random(f"{name}:{seed}")
    curves = CurveSource(rng)
    make = WORKLOADS[name][1](rng, curves)
    while True:
        batch = make(rng, curves)
        rng.shuffle(batch)
        yield batch
