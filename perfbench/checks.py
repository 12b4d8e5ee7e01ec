"""Answer checks, one per request kind, run after the timed region.

Each check compares the CLI's JSON with a second computation: traces the
generator computed itself, recounts by both of heckelab's point-counting
methods, mpmath's kleinj, exact rational arithmetic on matrices, and the
closed formulas for psi(n) and |SL2(Z/N)|.  Checks that cost as much as
the request itself ("deep" checks) run on a seeded subset of requests.

The tracer is only installed in forked children, so the heckelab
functions used here are never wrapped.
"""

import json
import random
import re
from fractions import Fraction

import mpmath

from heckelab.galois import count_points, excludes_class, parse_curve
from heckelab.hecke import modular_polynomial

from workloads import (CLASSES, discriminant, primes_upto, psi, sl2_order,
                       squarefree)

DEEP_PER_KIND = 24  # requests per kind that get the deep check
RECOUNT_ROWS = 4  # rows per frobenius request recounted both ways

# Phi_2 as tabulated in the literature (e.g. Elkies 1998)
PHI2_TABLE = {(3, 0): 1, (0, 3): 1, (2, 2): -1, (2, 1): 1488, (1, 2): 1488,
              (2, 0): -162000, (0, 2): -162000, (1, 1): 40773375,
              (1, 0): 8748000000, (0, 1): 8748000000,
              (0, 0): -157464000000000}


class CheckFailed(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


def _kleinj(re_, im_, scale=1):
    """1728 * kleinj(scale * (re_ + im_ i)), all at 50 digits."""
    with mpmath.workdps(50):
        return 1728 * mpmath.kleinj(scale * mpmath.mpc(re_, im_))


def _phi_residual(coeffs, x, y):
    """|Phi(x, y)| relative to the largest monomial, at 50 digits."""
    with mpmath.workdps(50):
        x, y = mpmath.mpc(x), mpmath.mpc(y)
        total = mpmath.mpc(0)
        biggest = mpmath.mpf(0)
        for (i, k), c in coeffs.items():
            term = c * x ** i * y ** k
            total += term
            biggest = max(biggest, abs(term))
        return float(abs(total) / (1 + biggest))


def _fixes(m, D, x, y):
    """Exact test that the integer matrix m fixes x + y*sqrt(D), D < 0:
    c t^2 + (d - a) t - b = 0, split into rational and sqrt(D) parts."""
    (a, b), (c, d) = m
    return (c * (x * x + y * y * D) + (d - a) * x - b == 0
            and 2 * c * x * y + (d - a) * y == 0)


def _matrix(text):
    nums = [Fraction(t) for t in re.findall(r"-?\d+(?:/\d+)?", text)]
    expect(len(nums) == 4, f"not a 2x2 matrix: {text}")
    return [nums[:2], nums[2:]]


class Checker:
    def __init__(self, seed):
        self.rng = random.Random(f"checks:{seed}")
        self.deep_left = {}
        self.phi = {}

    def _deep(self, kind):
        left = self.deep_left.setdefault(kind, DEEP_PER_KIND)
        if left and self.rng.random() < 0.5:
            self.deep_left[kind] = left - 1
            return True
        return False

    def _verified_phi(self, n):
        """heckelab's Phi_n, accepted once it matches the table (n = 2)
        and vanishes on (j(tau), j(n tau)) by kleinj at three points."""
        if n not in self.phi:
            coeffs = dict(modular_polynomial(n).coeffs)
            if n == 2:
                expect(coeffs == PHI2_TABLE, "Phi_2 differs from the table")
            self.phi[n] = coeffs
            self._phi_vanishes(n, coeffs)
        return self.phi[n]

    def _phi_vanishes(self, n, coeffs):
        for _ in range(3):
            re_, im_ = self.rng.uniform(-0.5, 0.5), self.rng.uniform(0.9, 1.6)
            r = _phi_residual(coeffs, _kleinj(re_, im_), _kleinj(re_, im_, n))
            expect(r < 1e-30, f"Phi_{n} residual {r:.3e} at kleinj values")

    def check(self, req, code, stdout):
        """Raise CheckFailed unless the request answered correctly."""
        expect(code == 0, f"exit code {code}")
        doc = json.loads(stdout)
        getattr(self, "_" + req["kind"].replace("-", "_"))(
            req["expect"], doc["report"])

    # -- Frobenius traces and certificates ----------------------------------

    def _recount(self, coeffs, ell):
        curve = parse_curve("[" + ",".join(map(str, coeffs)) + "]")
        a = count_points(curve, ell, method="exhaustive")
        expect(a == count_points(curve, ell, method="bsgs"),
               f"exhaustive and bsgs disagree at {ell}")
        return a

    def _frobenius(self, e, rep):
        disc = discriminant(*e["curve"])
        good = [ell for ell in primes_upto(e["upto"]) if disc % ell]
        rows = rep["samples"]
        expect(rep["bound"] == e["upto"], "bound")
        expect([ell for ell, _ in rows] == good, "row primes are not the "
               "good primes up to the bound")
        for ell, a in rows:
            expect(a * a <= 4 * ell, f"Hasse bound fails at {ell}")
            if ell in e["traces"]:
                expect(a == e["traces"][ell], f"a_{ell} differs")
        if self._deep("frobenius"):
            for ell, a in self.rng.sample(rows, RECOUNT_ROWS):
                expect(self._recount(e["curve"], ell) == a,
                       f"recount of a_{ell} differs")

    def _det_coverage(self, disc, upto, p):
        units = {ell % p for ell in primes_upto(upto) if disc % ell and ell != p}
        closure, frontier = {1}, [1]
        while frontier:
            g = frontier.pop()
            for u in units:
                if g * u % p not in closure:
                    closure.add(g * u % p)
                    frontier.append(g * u % p)
        return len(closure) == p - 1

    def _image(self, e, rep):
        p, disc = e["p"], discriminant(*e["curve"])
        expect(rep["verdict"] == "Surjective", f"verdict {rep['verdict']}")
        expect(rep["witnesses"] == e["witnesses"], "witnesses differ from "
               "the first small-prime exclusions")
        expect(rep["detail"]["det_coverage"]
               == self._det_coverage(disc, e["upto"], p), "det coverage")
        good = [ell for ell in primes_upto(e["upto"])
                if disc % ell and ell != p]
        expect(rep["detail"]["samples"] == len(good), "sample count")
        if self._deep("image"):
            for cls in CLASSES:
                w = rep["witnesses"][cls]
                a = self._recount(e["curve"], w["ell"])
                expect(a % p == w["a_mod_p"] and excludes_class(
                    cls, a, w["ell"], p), f"{cls} witness does not hold")

    def _goursat(self, e, rep):
        p, w = e["p"], rep["witness"]
        expect(rep["verdict"] == "FullProduct", f"verdict {rep['verdict']}")
        expect(rep["factor_verdicts"] == ["Surjective", "Surjective"],
               "factor verdicts")
        expect(w == e["witness"], "witness differs from the first "
               "separating small prime")
        if self._deep("goursat"):
            a = self._recount(e["curves"][0], w["ell"]) % p
            b = self._recount(e["curves"][1], w["ell"]) % p
            expect((a, b) == (w["a1_mod_p"], w["a2_mod_p"])
                   and a != b and a != (-b) % p, "witness does not separate")

    def _types_curve(self, e, rep):
        m, p = len(e["curves"]), e["level"]
        expect(rep["m"] == m and rep["level"] == p, "shape")
        expect(rep["ambient_order"] == sl2_order(p) ** m, "ambient order")
        expect(rep["subgroup_order"] == rep["ambient_order"]
               and rep.get("index") == 1, "index of a certified image")
        expect(rep["basis"] == ("surjectivity certificate" if m == 1
                                else "full product certificate"), "basis")

    # -- finite groups ------------------------------------------------------

    def _types_gens(self, e, rep):
        N = e["level"]
        amb = sl2_order(N)
        expect(rep["ambient_order"] == amb, "ambient order")
        h = rep["subgroup_order"]
        expect(amb % h == 0 and rep["index"] * h == amb, "index law")
        divs = [d for d in range(1, N + 1) if N % d == 0]
        expect([d for d, _ in rep["orbit_counts_by_level"]] == divs, "levels")
        if self._deep("types-gens"):
            gens = [tuple(v % N for row in g for v in row) for g in e["gens"]]
            H = _closure(gens, N)
            expect(len(H) == h, f"subgroup order {h}, closure {len(H)}")
            for d, count in rep["orbit_counts_by_level"]:
                red = {tuple(v % d for v in g) for g in H}
                expect(count * len(red) == sl2_order(d), f"count at {d}")

    def _lifting(self, e, rep):
        p = e["p"]
        expect(rep["order"] == sl2_order(p * p) and rep["full"]
               and rep["generates_mod_p"], "lifting order")

    def _sf(self, e, rep):
        expect(rep["verdict"] == "pass" and rep["trials"] == sl2_order(e["N"]),
               "SF transitivity")

    # -- Hecke cosets, Phi_n and j ------------------------------------------

    def _hecke_cosets(self, e, rep):
        n = e["n"]
        want = {(a, b, n // a) for a in range(1, n + 1) if n % a == 0
                for b in range(n // a)}
        got = []
        for text in rep["reps"]:
            (a, b), (c, d) = _matrix(text)
            expect(c == 0 and a * d == n and 0 <= b < d, f"rep {text}")
            got.append((a, b, d))
        expect(squarefree(n) and rep["count"] == rep["psi"] == psi(n)
               and len(set(got)) == len(got) == psi(n)
               and set(got) == want, "coset representatives")

    def _modpoly(self, e, rep):
        n = e["n"]
        coeffs = {(i, k): c for i, k, c in rep["coefficients"]}
        expect(rep["degX"] == rep["degY"] == psi(n), "degrees")
        expect(all(coeffs.get((k, i)) == c for (i, k), c in coeffs.items())
               and rep["symmetric"], "symmetry")
        if n == 2:
            expect(coeffs == PHI2_TABLE, "Phi_2 differs from the table")
        if self._deep("modpoly"):
            self._phi_vanishes(n, coeffs)

    def _close_to_kleinj(self, value, abs_err, ref):
        err = abs(complex(*value) - complex(ref))
        slack = 2.0 ** -50 * (1 + abs(complex(ref)))
        expect(err <= abs_err + slack, f"|j - 1728 kleinj| = {err:.3e}")

    def _j(self, e, rep):
        expect(rep["tau"] == e["tau"], "tau")
        self._close_to_kleinj(rep["value"], rep["abs_err"], _kleinj(*e["tau"]))

    def _mod1(self, e, rep):
        n = e["n"]
        expect(rep["verdict"] == "pass" and rep["trials"] == 20
               and rep["max_residual"] < 1e-6 and rep["seed"] == e["seed"],
               "MOD1 verdict")
        if self._deep("mod1"):
            # the CLI's own sample points, recomputed with kleinj
            phi = self._verified_phi(n)
            rng = random.Random(e["seed"])
            for _ in range(20):
                re_, im_ = rng.uniform(-0.5, 0.5), rng.uniform(0.9, 2.0)
                r = _phi_residual(phi, _kleinj(re_, im_), _kleinj(re_, im_, n))
                expect(r < 1e-6, f"Phi_{n} residual {r:.3e}")

    def _mod2(self, e, rep):
        n = e["n"]
        pairs = rep["witnesses"]
        expect(rep["verdict"] == "pass" and len(pairs) == psi(n)
               and rep["max_residual"] < 1e-4, "MOD2 verdict")
        expect(max(p["distance"] for p in pairs) == rep["max_residual"],
               "worst distance")
        if self._deep("mod2"):
            phi = self._verified_phi(n)
            for p in pairs:
                root, image = complex(*p["root"]), complex(*p["image"])
                r = _phi_residual(phi, complex(*e["X0"]), root)
                expect(r < 1e-9, f"fiber root residual {r:.3e}")
                expect(abs(image - root) <= 1e-9 * (1 + abs(root)),
                       "coset image is not at its fiber root")

    # -- special points -----------------------------------------------------

    def _sp(self, e, rep):
        D, x, y = e["D"], Fraction(e["x"]), Fraction(e["y"])
        w = rep["witnesses"][0]
        expect(rep["verdict"] == "pass" and w["exact_round_trip"], "SP verdict")
        expect(_fixes(_matrix(w["witness_matrix"]), D, x, y),
               "witness does not fix tau")
        with mpmath.workdps(50):
            tau = mpmath.mpc(mpmath.mpf(x.numerator) / x.denominator,
                             mpmath.mpf(y.numerator) / y.denominator
                             * mpmath.sqrt(-D))
        self._close_to_kleinj(w["z_x"], w["abs_err"], _kleinj(tau.real, tau.imag))

    def _special_point(self, e, rep):
        D, x, y = e["D"], Fraction(e["x"]), Fraction(e["y"])
        expect(rep["tau"] == {"D": D, "x": e["x"], "y": e["y"]}, "tau")
        expect(_fixes(rep["witness"], D, x, y), "witness does not fix tau")
        mp = rep["minimal_polynomial"]
        expect((Fraction(mp["B"]), Fraction(mp["C"]))
               == (-2 * x, x * x - y * y * D), "minimal polynomial")
        expect(rep["witness_class"] == "elliptic" and rep["round_trip_exact"],
               "witness class")

    def _special_matrix(self, e, rep):
        (a, b), (c, d) = e["m"]
        disc = (a + d) ** 2 - 4 * (a * d - b * c)
        kind = ("scalar" if b == c == 0 and a == d else "elliptic" if disc < 0
                else "parabolic" if disc == 0 else "hyperbolic")
        expect(rep["classification"] == kind and rep["disc"] == str(disc),
               "classification")
        fp = rep["fixed_point"]
        if kind != "elliptic":
            expect(fp is None, "fixed point of a non-elliptic matrix")
            return
        x, y = Fraction(fp["x"]), Fraction(fp["y"])
        expect(fp["D"] < 0 and squarefree(-fp["D"]) and y > 0
               and _fixes(e["m"], fp["D"], x, y), "fixed point")


def _closure(gens, N):
    """Subgroup of SL2(Z/N) generated by gens, as residue 4-tuples."""
    one = (1 % N, 0, 0, 1 % N)
    seen, frontier = {one}, [one]
    while frontier:
        a, b, c, d = frontier.pop()
        for e, f, g, h in gens:
            m = ((a * e + b * g) % N, (a * f + b * h) % N,
                 (c * e + d * g) % N, (c * f + d * h) % N)
            if m not in seen:
                seen.add(m)
                frontier.append(m)
    return seen
