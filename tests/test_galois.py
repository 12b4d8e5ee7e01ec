import itertools
import random

import pytest

from heckelab import galois
from heckelab.congruence import enumerate_sl2
from heckelab.errors import (
    BadDeterminant,
    BadReduction,
    NotSubdirect,
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
    goursat_decompose,
    lifting_check,
    parse_curve,
    primes_upto,
    standard_lifts,
)

E_11A3 = parse_curve("[0,-1,1,0,0]")   # y^2 + y = x^3 - x^2
E_37A1 = parse_curve("[0,0,1,-1,0]")   # y^2 + y = x^3 - x
E_CM = parse_curve("[0,0,0,-1,0]")     # y^2 = x^3 - x, CM by Z[i]


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


def test_auto_matches_exhaustive_across_cutoff(monkeypatch):
    rng = random.Random(17)
    curves = [E_11A3, E_37A1]
    while len(curves) < 5:
        try:
            curves.append(EllipticCurve(*(rng.randrange(-30, 31)
                                          for _ in range(5))))
        except ValueError:
            continue
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
    # at a few ell below the cutoff bsgs cannot pin the group order; its
    # fallback is the only call it makes to the exhaustive sum for ell >= 5
    fallbacks = []

    def spy(curve, ell):
        fallbacks.append(ell)
        return exhaustive(curve, ell)

    monkeypatch.setattr(galois, "_count_exhaustive", spy)
    for (curve, ell), a in truth.items():
        if 5 <= ell < BSGS_CUTOFF:
            assert count_points(curve, ell, "bsgs") == a
    assert fallbacks


def test_bsgs_ambiguity_above_exhaustive_limit(monkeypatch):
    # with every point annihilated by everything, no order is ever pinned
    monkeypatch.setattr(galois, "_annihilators",
                        lambda ops, P, lo, hi: range(lo, hi + 1))
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
    # CM by Z[i]: 5 splits in Q(i), 7 is inert
    c5 = certify_mod_p_image(E_CM, 5, 1000)
    assert c5.verdict == "ContainedInNormalizerCartan(split)"
    c7 = certify_mod_p_image(E_CM, 7, 1000)
    assert c7.verdict == "ContainedInNormalizerCartan(nonsplit)"


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


# -- brute-force validation of the obstruction predicates over GL2(F5) ------

def _gl2_f5():
    return [(a, b, c, d)
            for a in range(5) for b in range(5)
            for c in range(5) for d in range(5)
            if (a * d - b * c) % 5 != 0]


def _mul5(x, y):
    return ((x[0] * y[0] + x[1] * y[2]) % 5, (x[0] * y[1] + x[1] * y[3]) % 5,
            (x[2] * y[0] + x[3] * y[2]) % 5, (x[2] * y[1] + x[3] * y[3]) % 5)


def _charpolys(mats):
    return {((m[0] + m[3]) % 5, (m[0] * m[3] - m[1] * m[2]) % 5)
            for m in mats}


def _is_closed(mats):
    s = set(mats)
    return all(_mul5(x, y) in s for x in s for y in s)


def test_predicates_match_actual_maximal_subgroups():
    # characteristic polynomials are conjugation invariant, so checking one
    # representative of each class covers all conjugates, and any subgroup
    # of a class realizes a subset of its (trace, det) pairs
    borel = [m for m in _gl2_f5() if m[2] == 0]
    split = ([(a, 0, 0, d) for a in range(1, 5) for d in range(1, 5)]
             + [(0, b, c, 0) for b in range(1, 5) for c in range(1, 5)])
    cartan_ns = [(a, 2 * b % 5, b, a) for a in range(5) for b in range(5)
                 if (a * a - 2 * b * b) % 5 != 0]
    norm_ns = cartan_ns + [_mul5((1, 0, 0, 4), m) for m in cartan_ns]
    assert len(borel) == 80 and len(split) == 32 and len(norm_ns) == 48
    assert _is_closed(split) and _is_closed(norm_ns)

    for cls, group in (("borel", borel),
                       ("normalizer_split_cartan", split),
                       ("normalizer_nonsplit_cartan", norm_ns)):
        realized = _charpolys(group)
        for t in range(5):
            for d in range(1, 5):
                assert excludes_class(cls, t, d, 5) == ((t, d) not in realized)


def _proj_norm(m):
    lead = next(v for v in m if v % 5)
    inv = pow(lead, -1, 5)
    return tuple(v * inv % 5 for v in m)


def test_exceptional_predicate_vs_s4_subgroup():
    pgl = sorted({_proj_norm(m) for m in _gl2_f5()})
    assert len(pgl) == 120

    def proj_order(m):
        k, x = 1, m
        while x != (1, 0, 0, 1):
            x = _proj_norm(_mul5(x, m))
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
                    v = _proj_norm(_mul5(g, h))
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
               for m in _gl2_f5())


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
        lifting_check(11, standard_lifts(5))
    with pytest.raises(BadDeterminant):
        lifting_check(5, [(2, 0, 0, 1)])


def test_lifting_accepts_nested_lists():
    rep = lifting_check(5, [[[0, -1], [1, 0]], [[1, 1], [0, 1]]])
    assert rep.full is True


def test_goursat_decompose_diagonal():
    fmg = enumerate_sl2(5)
    dec = goursat_decompose([(g, g) for g in fmg.elements], fmg, fmg)
    assert dec.kind == "graph"
    assert len(dec.n1) == 1 and len(dec.n2) == 1
    assert dec.quotient_order == 120
    assert all(dec.iso[c] == c for c in dec.iso)


def test_goursat_decompose_full():
    fmg = enumerate_sl2(5)
    dec = goursat_decompose(itertools.product(fmg.elements, fmg.elements),
                            fmg, fmg)
    assert dec.kind == "full"
    assert len(dec.n1) == 120 and len(dec.n2) == 120


def test_goursat_decompose_pm_graph():
    fmg = enumerate_sl2(5)
    neg = (4, 0, 0, 4)
    pairs = {(g, h) for g in fmg.elements for h in (g, fmg.mul(neg, g))}
    dec = goursat_decompose(pairs, fmg, fmg)
    assert dec.kind == "graph"
    assert set(dec.n1) == {fmg.identity, neg}
    assert set(dec.n2) == {fmg.identity, neg}
    assert dec.quotient_order == 60
    assert len(dec.n1) * len(dec.n2) * dec.quotient_order == len(pairs)


def test_goursat_decompose_not_subdirect():
    fmg = enumerate_sl2(5)
    with pytest.raises(NotSubdirect):
        goursat_decompose([(g, fmg.identity) for g in fmg.elements], fmg, fmg)


def test_mixed_level_decompose():
    f2, f3 = enumerate_sl2(2), enumerate_sl2(3)
    dec = goursat_decompose(itertools.product(f2.elements, f3.elements),
                            f2, f3)
    assert dec.kind == "full"
    assert len(dec.n1) == 6 and len(dec.n2) == 24
