import itertools
import json
import os
import random
import subprocess
import sys
from math import gcd, isqrt

import pytest

from heckelab import galois
from heckelab.congruence import closure, sl2_order
from heckelab.errors import (
    BadDeterminant,
    BadReduction,
    OrderAmbiguous,
)
from heckelab.galois import (
    BSGS_CUTOFF,
    EXHAUSTIVE_LIMIT,
    EllipticCurve,
    certify_goursat_pair,
    certify_mod_p_image,
    count_points,
    excludes_class,
    frobenius_sample,
    lifting_check,
    parse_curve,
    primes_upto,
    standard_lifts,
)

E_11A3 = parse_curve("[0,-1,1,0,0]")   # y^2 + y = x^3 - x^2
E_37A1 = parse_curve("[0,0,1,-1,0]")   # y^2 + y = x^3 - x
E_CM = parse_curve("[0,0,0,-1,0]")     # y^2 = x^3 - x, CM by Z[i]

# the primes the mod-p certificates cover, 5 <= p <= 13
CERTIFIED_PRIMES = (5, 7, 11, 13)


def naive_count(curve, ell):
    """Independent oracle: scan all affine pairs over F_ell."""
    def red(a):
        return a.numerator * pow(a.denominator, -1, ell) % ell
    a1, a2, a3, a4, a6 = (red(a) for a in
                          (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6))
    pts = 1
    for x in range(ell):
        for y in range(ell):
            if (y * y + a1 * x * y + a3 * y
                    - x ** 3 - a2 * x * x - a4 * x - a6) % ell == 0:
                pts += 1
    return ell + 1 - pts


def test_parse_and_format():
    assert str(E_11A3) == "[0,-1,1,0,0]"
    assert parse_curve("[1/2, 0, 0, -3, 1/4]").a1.denominator == 2
    with pytest.raises(ValueError):
        parse_curve("[1,2,3]")
    with pytest.raises(ValueError):
        parse_curve("1,2,3,4,5")


def test_discriminants():
    assert E_11A3.discriminant() == -11
    assert E_37A1.discriminant() == 37
    with pytest.raises(ValueError):
        EllipticCurve(0, 0, 0, 0, 0)


def test_count_against_naive_scan():
    for curve in (E_11A3, E_37A1, E_CM, EllipticCurve(0, 0, 0, 1, 1)):
        disc = curve.discriminant()
        for ell in (2, 3, 5, 7, 13, 17):
            if disc.numerator % ell == 0:
                continue
            assert count_points(curve, ell) == naive_count(curve, ell)


def test_spec_count_example():
    curve = EllipticCurve(0, 0, 0, 1, 1)
    assert count_points(curve, 5) == -3
    assert naive_count(curve, 5) == -3  # 9 points including infinity


def test_dual_algorithm_agreement():
    for curve in (E_11A3, E_37A1):
        for ell in (7, 101, 1009):
            ex = count_points(curve, ell, "exhaustive")
            bs = count_points(curve, ell, "bsgs")
            assert ex == bs


def test_dual_agreement_random_curves():
    rng = random.Random(5)
    tried = 0
    while tried < 5:
        a4, a6 = rng.randrange(-10, 11), rng.randrange(-10, 11)
        try:
            curve = EllipticCurve(0, 0, 0, a4, a6)
        except ValueError:
            continue
        ell = 211
        if curve.discriminant().numerator % ell == 0:
            continue
        assert count_points(curve, ell, "exhaustive") == \
            count_points(curve, ell, "bsgs")
        tried += 1


def _seeded_curves(n, seed):
    rng = random.Random(seed)
    curves = []
    while len(curves) < n:
        try:
            curves.append(EllipticCurve(*(rng.randrange(-30, 31)
                                          for _ in range(5))))
        except ValueError:
            continue
    return curves


def test_auto_matches_exhaustive_across_cutoff(monkeypatch):
    curves = [E_11A3, E_37A1] + _seeded_curves(3, 17)
    exhaustive = galois._count_exhaustive
    truth = {}
    for curve in curves:
        for ell in primes_upto(3000):
            try:
                truth[curve, ell] = count_points(curve, ell, "exhaustive")
            except BadReduction:
                continue
            assert count_points(curve, ell) == truth[curve, ell]
    assert any(ell >= BSGS_CUTOFF for _, ell in truth)
    # at a few small ell bsgs cannot pin the group order; its fallback is
    # the only call it makes to the exhaustive sum for ell >= 5, and it
    # never happens from the cutoff on
    fallbacks = []

    def spy(curve, ell):
        fallbacks.append(ell)
        return exhaustive(curve, ell)

    monkeypatch.setattr(galois, "_count_exhaustive", spy)
    for (curve, ell), a in truth.items():
        if ell >= 5:
            assert count_points(curve, ell, "bsgs") == a
    assert fallbacks and max(fallbacks) < BSGS_CUTOFF


def _short_models(curves, bound):
    """(A, ell) and the affine points of the short model mod each good ell,
    5 <= ell < bound, x ascending, found by scanning every (x, y)."""
    for curve in curves:
        for ell in primes_upto(bound - 1)[2:]:
            try:
                count_points(curve, ell, "exhaustive")
            except BadReduction:
                continue
            A, B = (v.numerator * pow(v.denominator, -1, ell) % ell
                    for v in curve.short_model())
            roots = {}
            for y in range(ell):
                roots.setdefault(y * y % ell, y)
            points = []
            for x in range(ell):
                v = (x ** 3 + A * x + B) % ell
                if v in roots:
                    points.append((x, roots[v]))
            yield A, ell, iter(points)


def test_mul_matches_repeated_add():
    for A, ell, points in itertools.islice(
            _short_models(_seeded_curves(3, 41), 200), 0, None, 7):
        P = next(points)
        kP = None
        for k in range(60):
            assert galois._mul(k, P, A, ell) == kP
            kP = galois._add(kP, P, A, ell)


def test_annihilators_match_order_scan():
    # each point's order n by walking its multiples; then (c - a)Q = O
    # iff n' | c - a for Q = kP of order n' = n / gcd(n, k).  The
    # multiples taken give orders below 2m (read from the baby steps) and
    # exactly 2m, where mQ has y = 0 and a giant point matches it with
    # both signs: e = +-m, i.e. a = +-m mod 2m + 1.
    paths = {"baby": 0, "two-torsion": 0, "giant": 0}
    for A, ell, points in _short_models(_seeded_curves(6, 43), 400):
        c, s = ell + 1, isqrt(4 * ell)
        m = isqrt(s) + 1
        for P in itertools.islice(points, 3):
            multiples = [P]
            while multiples[-1] is not None:
                multiples.append(galois._add(multiples[-1], P, A, ell))
            n = len(multiples)
            for k in {1} | {n // d for d in (2 * m, 2, 3, m) if n % d == 0}:
                order = n // gcd(n, k)
                want = [a for a in range(-s, s + 1) if (c - a) % order == 0]
                got = galois._annihilators(multiples[k - 1], A, ell, c, s)
                assert sorted(got) == want, (A, ell, P, k)
                if order < 2 * m:
                    paths["baby"] += 1
                elif order > 2 * m:
                    paths["giant"] += 1
                elif any((a + m) % (2 * m + 1) in (0, 2 * m) for a in want):
                    paths["two-torsion"] += 1
    assert min(paths.values()) > 0, paths


def test_bsgs_matches_exhaustive_at_every_ell():
    for curve in _seeded_curves(8, 47):
        for ell in primes_upto(1200)[2:]:
            try:
                a = count_points(curve, ell, "exhaustive")
            except BadReduction:
                continue
            assert count_points(curve, ell, "bsgs") == a, (curve, ell)


def test_twist_points_lie_on_the_twist_of_chi_v():
    # (xv, v^2) is on Y^2 = X^3 + Av^2 X + Bv^3, a curve isomorphic to E
    # when v is a square and to its quadratic twist otherwise
    twists = {1: 0, -1: 0}
    for curve in _seeded_curves(4, 53):
        for ell in primes_upto(400)[2:]:
            try:
                a = count_points(curve, ell, "exhaustive")
            except BadReduction:
                continue
            A, B = (v.numerator * pow(v.denominator, -1, ell) % ell
                    for v in curve.short_model())
            counted = set()
            for x in range(ell):
                v = (x ** 3 + A * x + B) % ell
                if v == 0:
                    continue
                X, Y = x * v % ell, v * v % ell
                Av, Bv = A * v * v % ell, B * v ** 3 % ell
                assert (Y * Y - X ** 3 - Av * X - Bv) % ell == 0
                chi = 1 if pow(v, (ell - 1) // 2, ell) == 1 else -1
                if chi not in counted:  # one exhaustive order per sign
                    counted.add(chi)
                    twists[chi] += 1
                    twist = EllipticCurve(0, 0, 0, Av, Bv)
                    order = ell + 1 - count_points(twist, ell, "exhaustive")
                    assert order == ell + 1 - chi * a, (curve, ell, x)
    assert min(twists.values()) > 0


def test_stride_start_matches_ladder():
    # the giant walk's start (c + Kw)P = q(wP) + rP, r a baby step (r <= m)
    # or wP less one (r > m), against the plain ladder
    paths = {"r = 0": 0, "r <= m": 0, "r > m": 0}
    for A, ell, points in _short_models(_seeded_curves(3, 59), 800):
        c, s = ell + 1, isqrt(4 * ell)
        m = isqrt(s) + 1
        w, K = 2 * m + 1, (s + m) // (2 * m + 1)
        for P in points:  # _annihilators returns early if some jP = O
            steps = [None]
            for _ in range(m + 1):
                steps.append(galois._add(steps[-1], P, A, ell))
            if None not in steps[1:]:
                break
        W = galois._add(steps[m + 1], steps[m], A, ell)
        r = (c + K * w) % w
        paths["r = 0" if r == 0 else "r <= m" if r <= m else "r > m"] += 1
        assert galois._stride_mul(c + K * w, W, steps[:m + 1], A, ell) == \
            galois._mul(c + K * w, P, A, ell), (A, ell, P)
    assert min(paths.values()) > 0, paths


def test_bsgs_ambiguity_above_exhaustive_limit(monkeypatch):
    # with every point annihilated by everything, no order is ever pinned
    monkeypatch.setattr(galois, "_annihilators",
                        lambda P, A, ell, c, s: range(-s, s + 1))
    ell = primes_upto(EXHAUSTIVE_LIMIT + 100)[-1]
    assert ell > EXHAUSTIVE_LIMIT
    with pytest.raises(OrderAmbiguous, match="ambiguity"):
        count_points(E_37A1, ell, "bsgs")
    assert issubclass(OrderAmbiguous, ArithmeticError)


def test_bad_reduction():
    with pytest.raises(BadReduction):
        count_points(E_11A3, 11)
    with pytest.raises(BadReduction):
        count_points(EllipticCurve(0, 0, 0, 0, 25), 5)  # additive at 5
    with pytest.raises(BadReduction):
        count_points(parse_curve("[0,0,0,1/5,1]"), 5)  # non-integral model


def _fraction_invariants(curve):
    """Independent oracle: c4, c6 and the discriminant in Fractions, from
    the coefficients as typed."""
    a1, a2, a3, a4, a6 = (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return (b2 * b2 - 24 * b4, -b2 ** 3 + 36 * b2 * b4 - 216 * b6,
            -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6)


# rational models and u, the lcm of their coefficients' denominators
RATIONAL_MODELS = (("[1/2,0,-1/3,-3,1/4]", 12), ("[1/6,1/5,0,2,7/9]", 90),
                   ("[0,0,0,1/16,3/64]", 64))


@pytest.mark.parametrize("text,u", RATIONAL_MODELS)
def test_rational_model_matches_its_integral_rescaling(text, u):
    curve = parse_curve(text)
    coeffs = (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)
    scaled = EllipticCurve(*(a * u ** i for a, i in zip(coeffs,
                                                         (1, 2, 3, 4, 6))))
    assert all(a.denominator == 1 for a in (scaled.a1, scaled.a2, scaled.a3,
                                            scaled.a4, scaled.a6))
    c4, c6, disc = _fraction_invariants(curve)
    assert curve.discriminant() == disc
    assert curve.short_model() == (-27 * c4, -54 * c6)
    assert scaled.discriminant() == disc * u ** 12
    for ell in primes_upto(2000):
        if u % ell == 0:
            with pytest.raises(BadReduction, match="not integral"):
                count_points(curve, ell)
            continue
        if disc.numerator % ell == 0:
            for c in (curve, scaled):
                with pytest.raises(BadReduction, match="bad reduction"):
                    count_points(c, ell)
            continue
        want = count_points(scaled, ell, "exhaustive")
        assert count_points(curve, ell, "exhaustive") == want, ell
        if ell >= 5:
            assert count_points(curve, ell, "bsgs") == want, ell
            assert count_points(scaled, ell, "bsgs") == want, ell
    ells = {ell for ell, _ in frobenius_sample(curve, 2000).samples}
    assert not any(u % ell == 0 for ell in ells)
    assert ells == {ell for ell in primes_upto(2000)
                    if u % ell and disc.numerator % ell}


def test_hasse_bound_on_samples():
    sample = frobenius_sample(E_37A1, 300)
    assert sample.samples
    for ell, a in sample.samples:
        assert a * a <= 4 * ell
        assert 37 % ell != 0


def test_sample_excludes_bad_primes_and_sorts():
    sample = frobenius_sample(E_11A3, 100)
    ells = [ell for ell, _ in sample.samples]
    assert 11 not in ells
    assert ells == sorted(ells)
    assert set(ells) | {11} == set(primes_upto(100))


def _fresh_trace_caches():
    galois._a_ell.cache_clear()
    galois._canonical.cache_clear()


def test_equal_curves_share_traces_by_one_match(monkeypatch):
    # 37 is the only bad prime of 37a1, so below it every prime is good
    _fresh_trace_caches()
    first = frobenius_sample(parse_curve("[0,0,1,-1,0]"), 36)
    good = len(first.samples)
    assert good == len(primes_upto(36))

    def refuse(curve, ell, method="auto"):
        raise AssertionError(f"counted {curve} at {ell}")
    monkeypatch.setattr(galois, "count_points", refuse)
    compares = []
    eq = EllipticCurve.__eq__
    monkeypatch.setattr(EllipticCurve, "__eq__",
                        lambda x, y: compares.append(1) or eq(x, y))
    for text in ("[0, 0, 1, -1, 0]", "[0,0,1,-2/2,0]"):
        before = galois._a_ell.cache_info()
        del compares[:]
        again = frobenius_sample(parse_curve(text), 36)
        after = galois._a_ell.cache_info()
        assert again == first
        assert after.hits - before.hits == good
        assert after.misses == before.misses
        assert len(compares) <= 1  # once per sample, not once per ell


def test_bad_prime_is_counted_once_per_curve(monkeypatch):
    # 11 is the only bad prime of 11a3
    _fresh_trace_caches()
    first = frobenius_sample(parse_curve("[0,-1,1,0,0]"), 36)
    assert 11 not in dict(first.samples)

    def refuse(curve, ell, method="auto"):
        raise AssertionError(f"counted {curve} at {ell}")
    monkeypatch.setattr(galois, "count_points", refuse)
    assert frobenius_sample(parse_curve("[0,-1,1,0,0]"), 36) == first


def test_curve_differing_in_one_coefficient_gets_its_own_traces():
    _fresh_trace_caches()
    frobenius_sample(E_37A1, 36)
    other = parse_curve("[0,0,1,-1,1]")
    before = galois._a_ell.cache_info()
    sample = frobenius_sample(other, 36)
    after = galois._a_ell.cache_info()
    assert after.hits == before.hits
    assert after.misses - before.misses == len(primes_upto(36))
    bad = other.discriminant().numerator
    assert sample.samples == tuple((ell, count_points(other, ell))
                                   for ell in primes_upto(36) if bad % ell)
    assert sample.samples != frobenius_sample(E_37A1, 36).samples


def test_mutating_primes_upto_leaves_samples_alone():
    sample = frobenius_sample(E_11A3, 100)
    ps = primes_upto(100)
    ps[:] = [4, 6]
    assert primes_upto(100)[:2] == [2, 3]
    assert frobenius_sample(E_11A3, 100) == sample


def test_borel_containment_mod_5():
    cert = certify_mod_p_image(E_11A3, 5, 1000)
    assert cert.verdict == "ContainedInBorel"
    assert "ell^0 + ell^1" in cert.detail["borel_pattern"]
    assert "borel" not in cert.witnesses
    # the evidence pattern itself: a_ell = 1 + ell mod 5 at every good ell
    for ell, a in frobenius_sample(E_11A3, 1000).samples:
        if ell != 5:
            assert (a - 1 - ell) % 5 == 0


def test_surjective_mod_7_with_revalidated_witnesses():
    cert = certify_mod_p_image(E_11A3, 7, 1000)
    assert cert.verdict == "Surjective"
    assert set(cert.witnesses) == {"borel", "normalizer_split_cartan",
                                   "normalizer_nonsplit_cartan", "exceptional"}
    for cls, w in cert.witnesses.items():
        a = count_points(E_11A3, w["ell"])
        assert a % 7 == w["a_mod_p"]
        assert w["ell"] % 7 == w["ell_mod_p"]
        assert excludes_class(cls, a, w["ell"], 7)


def test_surjective_37a1():
    assert certify_mod_p_image(E_37A1, 5, 1000).verdict == "Surjective"
    assert certify_mod_p_image(E_37A1, 7, 1000).verdict == "Surjective"


def test_cm_curve_lands_in_cartan_normalizers():
    # CM by Z[i]: p splits in Q(i) when p = 1 mod 4 and is inert otherwise
    for p in CERTIFIED_PRIMES:
        kind = "split" if p % 4 == 1 else "nonsplit"
        cert = certify_mod_p_image(E_CM, p, 1000)
        assert cert.verdict == f"ContainedInNormalizerCartan({kind})", p


def _units_generate(units, p):
    """Independent criterion: F_p^* is cyclic of order p - 1, so units
    generate it iff for each prime q | p - 1 some unit is not a q-th
    power, i.e. has u^((p-1)/q) != 1."""
    qs = [q for q in range(2, p) if (p - 1) % q == 0
          and all(q % r for r in range(2, q))]
    return all(any(pow(u, (p - 1) // q, p) != 1 for u in units) for q in qs)


@pytest.mark.parametrize("p", CERTIFIED_PRIMES)
def test_det_coverage_matches_unit_generation(p):
    units = range(1, p)
    full = 0
    for k in range(p):
        for subset in itertools.combinations(units, k):
            rows = [(u, 0) for u in subset]
            cert = galois._image_from_rows(p, 1000, rows)
            expected = _units_generate(subset, p)
            assert cert.detail["det_coverage"] is expected, (p, subset)
            full += expected
    assert 0 < full < 2 ** (p - 1)


_CONTAINED_VERDICTS = {
    "normalizer_split_cartan": "ContainedInNormalizerCartan(split)",
    "normalizer_nonsplit_cartan": "ContainedInNormalizerCartan(nonsplit)",
    "exceptional": "ExceptionalPossible",
}


@pytest.mark.parametrize("p", (5, 7))
def test_verdict_follows_the_first_class_left(p, monkeypatch):
    # every subset of classes excluded, with units that do and do not cover
    # F_p^*, and traces a = 1 + ell (the Borel pattern ell^0 + ell^1) or
    # a = 0 (no pattern, since ell = 1 would need 2 = 0 mod p)
    classes = galois.OBSTRUCTION_CLASSES
    for k in range(len(classes) + 1):
        for excluded in itertools.combinations(classes, k):
            monkeypatch.setattr(galois, "excludes_class",
                                lambda cls, a, ell, q: cls in excluded)
            for units, full in ((range(1, p), True), ((1,), False)):
                for pattern in (True, False):
                    rows = [(u, (1 + u) % p if pattern else 0)
                            for u in units]
                    cert = galois._image_from_rows(p, 1000, rows)
                    left = [c for c in classes if c not in excluded]
                    if not left:
                        expected = "Surjective" if full else "Inconclusive"
                    elif left[0] == "borel":
                        expected = ("ContainedInBorel" if pattern
                                    else "Inconclusive")
                    else:
                        expected = _CONTAINED_VERDICTS[left[0]]
                    case = (p, excluded, full, pattern)
                    assert cert.verdict == expected, case
                    assert set(cert.witnesses) == set(excluded), case
                    assert cert.detail["det_coverage"] is full, case
                    assert cert.detail["samples"] == len(rows), case
                    if expected == "ContainedInBorel":
                        assert cert.detail["borel_pattern"] == (
                            f"a_ell = ell^0 + ell^1 mod {p}"), case
                    else:
                        assert "borel_pattern" not in cert.detail, case


def test_certify_guards():
    assert certify_mod_p_image(E_11A3, 11, 1000).verdict == "Inconclusive"
    with pytest.raises(ValueError):
        certify_mod_p_image(E_11A3, 3, 1000)
    with pytest.raises(ValueError):
        certify_mod_p_image(E_11A3, 5, 500)


def test_verdict_monotone_in_bound():
    verdicts = [certify_mod_p_image(E_11A3, 7, b).verdict
                for b in (1000, 1500, 2000)]
    assert verdicts == ["Surjective"] * 3
    borel = [certify_mod_p_image(E_11A3, 5, b).verdict for b in (1000, 2000)]
    assert borel == ["ContainedInBorel"] * 2


# -- brute-force validation of the obstruction predicates over GL2(F_p) -----

def _gl2(p):
    return [(a, b, c, d)
            for a in range(p) for b in range(p)
            for c in range(p) for d in range(p)
            if (a * d - b * c) % p != 0]


def _mul(x, y, p):
    return ((x[0] * y[0] + x[1] * y[2]) % p, (x[0] * y[1] + x[1] * y[3]) % p,
            (x[2] * y[0] + x[3] * y[2]) % p, (x[2] * y[1] + x[3] * y[3]) % p)


def _charpolys(mats, p):
    return {((m[0] + m[3]) % p, (m[0] * m[3] - m[1] * m[2]) % p)
            for m in mats}


def _is_closed(mats, p):
    s = set(mats)
    return all(_mul(x, y, p) in s for x in s for y in s)


def test_predicates_match_actual_maximal_subgroups():
    for p in CERTIFIED_PRIMES:
        _check_predicates_against_maximal_subgroups(p)


def _check_predicates_against_maximal_subgroups(p):
    # characteristic polynomials are conjugation invariant, so checking one
    # representative of each class covers all conjugates, and any subgroup
    # of a class realizes a subset of its (trace, det) pairs
    units = range(1, p)
    borel = [(a, b, 0, d) for a in units for b in range(p) for d in units]
    split = ([(a, 0, 0, d) for a in units for d in units]
             + [(0, b, c, 0) for b in units for c in units])
    r = next(r for r in units if pow(r, (p - 1) // 2, p) == p - 1)
    cartan_ns = [(a, r * b % p, b, a) for a in range(p) for b in range(p)
                 if (a * a - r * b * b) % p != 0]
    norm_ns = cartan_ns + [_mul((1, 0, 0, p - 1), m, p) for m in cartan_ns]
    assert len(borel) == p * (p - 1) ** 2
    assert len(split) == 2 * (p - 1) ** 2
    assert len(norm_ns) == 2 * (p * p - 1)
    assert _is_closed(split, p) and _is_closed(norm_ns, p)

    for cls, group in (("borel", borel),
                       ("normalizer_split_cartan", split),
                       ("normalizer_nonsplit_cartan", norm_ns)):
        realized = _charpolys(group, p)
        for t in range(p):
            for d in units:
                assert excludes_class(cls, t, d, p) == ((t, d) not in realized)


def _proj_norm(m):
    lead = next(v for v in m if v % 5)
    inv = pow(lead, -1, 5)
    return tuple(v * inv % 5 for v in m)


def test_exceptional_predicate_vs_s4_subgroup():
    pgl = sorted({_proj_norm(m) for m in _gl2(5)})
    assert len(pgl) == 120

    def proj_order(m):
        k, x = 1, m
        while x != (1, 0, 0, 1):
            x = _proj_norm(_mul(x, m, 5))
            k += 1
        return k

    s4 = None
    for x in pgl:
        if proj_order(x) != 4:
            continue
        for y in pgl:
            if proj_order(y) != 3:
                continue
            group = {(1, 0, 0, 1)}
            frontier = [(1, 0, 0, 1)]
            while frontier and len(group) <= 24:
                g = frontier.pop()
                for h in (x, y):
                    v = _proj_norm(_mul(g, h, 5))
                    if v not in group:
                        group.add(v)
                        frontier.append(v)
            if len(group) == 24:
                s4 = group
                break
        if s4:
            break
    assert s4 is not None
    # every element of an exceptional (projective S4) subgroup evades the
    # witness predicate, in every lift
    for m in s4:
        t, d = (m[0] + m[3]) % 5, (m[0] * m[3] - m[1] * m[2]) % 5
        assert not excludes_class("exceptional", t, d, 5)
    # and witness pairs do exist in the ambient group
    assert any(excludes_class("exceptional", (m[0] + m[3]) % 5,
                              (m[0] * m[3] - m[1] * m[2]) % 5, 5)
               for m in _gl2(5))


def test_goursat_full_product_pair():
    cert = certify_goursat_pair(E_11A3, E_37A1, 7, 1000)
    assert cert.verdict == "FullProduct"
    assert cert.factor_verdicts == ("Surjective", "Surjective")
    w = cert.witness
    a1 = count_points(E_11A3, w["ell"]) % 7
    a2 = count_points(E_37A1, w["ell"]) % 7
    assert (a1, a2) == (w["a1_mod_p"], w["a2_mod_p"])
    assert a1 != a2 and a1 != (-a2) % 7


def test_goursat_diagonal_and_twist():
    # good ell <= 1000 for 37a1 excluding p itself: 166 primes
    diag = certify_goursat_pair(E_37A1, E_37A1, 7, 1000)
    assert diag.verdict == "GraphPossible"
    assert diag.witness["trace_pattern"]["equal"] == 166
    tw = E_37A1.quadratic_twist(2)
    twisted = certify_goursat_pair(E_37A1, tw, 7, 1000)
    assert twisted.verdict == "GraphPossible"
    pat = twisted.witness["trace_pattern"]
    assert pat["negated"] > 0 and pat["equal"] < 166
    assert pat["equal"] + pat["negated"] >= 166


def test_goursat_inconclusive_factor():
    cert = certify_goursat_pair(E_11A3, E_37A1, 5, 1000)
    assert cert.verdict == "Inconclusive"
    assert cert.factor_verdicts[0] == "ContainedInBorel"


def test_lifting_standard_generators():
    r5 = lifting_check(5, standard_lifts(5))
    assert (r5.order, r5.full, r5.generates_mod_p) == (15000, True, True)
    r7 = lifting_check(7, standard_lifts(7))
    assert (r7.order, r7.full, r7.generates_mod_p) == (115248, True, True)


def test_lifting_kernel_pattern_fails():
    gens = [(6, 0, 0, 21), (1, 5, 0, 1), (1, 0, 5, 1)]  # I + 5M, tr M = 0
    rep = lifting_check(5, gens)
    assert rep.full is False
    assert rep.generates_mod_p is False
    assert rep.order == 125


def test_lifting_guards():
    with pytest.raises(ValueError):
        lifting_check(17, standard_lifts(5))
    with pytest.raises(BadDeterminant):
        lifting_check(5, [(2, 0, 0, 1)])


def test_lifting_accepts_nested_lists():
    rep = lifting_check(5, [[[0, -1], [1, 0]], [[1, 1], [0, 1]]])
    assert rep.full is True


def _random_sl2(rng, m):
    while True:
        a, b, c = (rng.randrange(m) for _ in range(3))
        if gcd(a, m) == 1:
            return (a, b, c, (1 + b * c) * pow(a, -1, m) % m)


def _kernel_sets(p):
    """Generator sets paired with the rank of H & K, K the kernel of
    SL2(Z/p^2) -> SL2(F_p); every rank 0..3 occurs."""
    m = p * p
    return [([], 0), ([(0, m - 1, 1, 0)], 0), ([(1, p, 0, 1)], 1),
            ([(1, 1, 0, 1)], 1),
            ([(1, p, 0, 1), (1, 0, p, 1)], 2),
            ([(1 + p, 0, 0, 1 - p + m), (1, p, 0, 1), (1, 0, p, 1)], 3),
            (standard_lifts(p), 3)]


@pytest.mark.parametrize("p", [5, 7])
def test_lifting_order_matches_closure_mod_p2(p):
    m = p * p
    rng = random.Random(p)
    sets = [(gens, None) for gens in
            ([_random_sl2(rng, m) for _ in range(rng.randint(1, 3))]
             for _ in range(12))]
    # unipotent and kernel mixtures, whose images mod p are proper
    sets += [([(1, rng.randrange(m), 0, 1), (1, 0, p * rng.randrange(p), 1)],
              None) for _ in range(6)]
    for gens, rank in _kernel_sets(p) + sets:
        rep = lifting_check(p, gens)
        group, mod_p = closure(gens, m), closure(gens, p)
        assert rep.order == len(group)
        assert rep.generates_mod_p == (len(mod_p) == sl2_order(p))
        assert rep.full == (len(group) == sl2_order(m))
        if rank is not None:
            assert len(group) == len(mod_p) * p ** rank


@pytest.mark.parametrize("p", [11, 13])
def test_lifting_full_when_reduction_generates(p):
    # Serre: a subgroup of SL2(Z/p^2) mapping onto SL2(F_p) is all of it
    rng = random.Random(p)
    onto = 0
    for _ in range(10):
        gens = [_random_sl2(rng, p * p) for _ in range(2)]
        rep = lifting_check(p, gens)
        if len(closure(gens, p)) == sl2_order(p):
            onto += 1
            assert rep.full and rep.generates_mod_p
            assert rep.order == sl2_order(p * p)
        else:
            assert not (rep.full or rep.generates_mod_p)
    assert onto >= 5


# run under `python -O`, which strips assert statements: a forged
# disjointness check and a forged trace outside the Hasse interval
SELF_CHECKS = """
import json, sys
sys.path.insert(0, sys.argv[1])
from heckelab import galois, hecke
hecke.verify_disjoint = lambda reps: False
galois._count_exhaustive = lambda curve, ell: 2 * ell
raised = []
for check in (lambda: hecke.double_coset_reps(6),
              lambda: galois.count_points(galois.parse_curve("[0,0,1,-1,0]"),
                                          5)):
    try:
        check()
        raised.append(None)
    except AssertionError as exc:
        raised.append(str(exc))
print(json.dumps([__debug__, raised]))
"""


def test_self_checks_raise_under_python_O():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "src")
    out = subprocess.run([sys.executable, "-O", "-c", SELF_CHECKS, src],
                         capture_output=True, text=True, timeout=60,
                         check=True).stdout
    debug, raised = json.loads(out)
    assert debug is False
    assert raised == ["the cosets at n=6 are not disjoint",
                      "a_5 = 10 violates the Hasse bound"]
