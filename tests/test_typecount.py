import random

import pytest

from heckelab.congruence import closure, sl2_order, subgroup_order
from heckelab.errors import EvidenceInsufficient
from heckelab.galois import parse_curve
from heckelab.typecount import _CONSISTENT_ORDER, type_count_report

E_11A3 = parse_curve("[0,-1,1,0,0]")
E_37A1 = parse_curve("[0,0,1,-1,0]")

S, T = (0, -1, 1, 0), (1, 1, 0, 1)


def _sl2(N):
    """All of SL2(Z/N), listed by closing S and T, sorted."""
    return sorted(closure([S, T], N))


SL2_5 = _sl2(5)
BOREL5 = tuple(g for g in SL2_5 if g[2] == 0)


def test_orbits_from_generators_only():
    # generators and the full element list give the same report
    gens = [(1, 1, 0, 1), (2, 0, 0, 3)]
    assert len(closure(gens, 5)) == len(BOREL5) == 20
    assert type_count_report(gens, 5) == type_count_report(BOREL5, 5)
    assert type_count_report(gens, 5).value == 6  # the points of P^1(F_5)


def test_orbit_count_equals_index_random_subgroups():
    # the kernel chain's index against the listed subgroup
    rng = random.Random(17)
    seen_orders = set()
    for _ in range(20):
        k = rng.choice((1, 2))
        gens = rng.sample(SL2_5, k)
        order = len(closure(gens, 5))
        assert type_count_report(gens, 5).value == 120 // order
        seen_orders.add(order)
    assert len(seen_orders) > 2


def test_explicit_full_subgroup_report():
    rep = type_count_report(SL2_5, 5)
    d = rep.to_dict()
    assert d["index"] == 1
    assert "lower_bound" not in d
    assert d["subgroup_order"] == 120
    assert d["orbit_counts_by_level"] == [[1, 1], [5, 1]]
    assert d["strict_growth"] is False


def test_explicit_trivial_subgroup_report():
    rep = type_count_report([(1, 0, 0, 1)], 5)
    assert rep.value == 120
    assert rep.is_lower_bound is False
    assert rep.to_dict()["index"] == 120


def test_explicit_gamma0_level_tower():
    h = [g for g in _sl2(6) if g[2] % 6 == 0]
    rep = type_count_report(h, 6)
    assert rep.to_dict()["index"] == 12
    assert rep.orbit_counts_by_level == ((1, 1), (2, 3), (3, 4), (6, 12))
    assert rep.to_dict()["strict_growth"] is True


def test_level_counts_never_decrease_along_chains():
    # comparable levels are the nested ones: d dividing d'
    rng = random.Random(3)
    f6 = _sl2(6)
    for _ in range(5):
        sub = closure(rng.sample(f6, 2), 6)
        rows = type_count_report(sub, 6).orbit_counts_by_level
        for da, ca in rows:
            for db, cb in rows:
                if db % da == 0:
                    assert ca <= cb


def test_explicit_rejects_non_subgroup():
    # a generator of determinant 2 mod 5 lies outside SL2(Z/5)
    with pytest.raises(ValueError):
        type_count_report([(1, 1, 0, 1), (2, 0, 0, 1)], 5)


def test_explicit_rejects_nonpositive_level():
    for level in (0, -5):
        with pytest.raises(ValueError):
            type_count_report([(1, 1, 0, 1)], level)


def test_explicit_unipotent_generator():
    # T generates a group of order 5 in SL2(Z/5), of index 24
    rep = type_count_report([(1, 1, 0, 1)], 5)
    assert rep.value == 24
    assert rep.subgroup_order == 5
    assert rep.orbit_counts_by_level == ((1, 1), (5, 24))


def _st_word(rng, length):
    m = (1, 0, 0, 1)
    for _ in range(length):
        e, f, g, h = rng.choice(((0, -1, 1, 0), (1, 1, 0, 1), (1, -1, 0, 1)))
        a, b, c, d = m
        m = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    return m


def test_explicit_report_matches_element_reduction():
    # reference: close H mod level once and reduce every element of it
    # to each divisor
    rng = random.Random(41)
    orders = set()
    for level in (12, 13, 14, 21, 22, 24, 27, 28, 30):
        for _ in range(4):
            gens = [_st_word(rng, rng.randint(2, 6)) for _ in range(2)]
            h = closure(gens, level)
            rows = tuple(
                (d, sl2_order(d) // len({tuple(v % d for v in g) for g in h}))
                for d in range(1, level + 1) if level % d == 0)
            rep = type_count_report(gens, level)
            assert rep.orbit_counts_by_level == rows, (level, gens)
            assert rep.value == sl2_order(level) // len(h)
            assert rep.subgroup_order == len(h)
            orders.add(len(h))
    assert len(orders) > 10


def test_borel_evidence_lower_bound():
    rep = type_count_report(E_11A3, 5)
    d = rep.to_dict()
    assert d["lower_bound"] == 6
    assert "index" not in d
    assert d["subgroup_order"] is None
    assert rep.is_lower_bound is True
    assert rep.ambient_order == 120
    assert "ContainedInBorel" in rep.basis


def test_surjective_exact_index_one():
    rep = type_count_report(E_37A1, 5)
    assert rep.value == 1
    assert rep.is_lower_bound is False
    assert rep.subgroup_order == 120


def test_pair_full_product_index_one():
    rep = type_count_report([E_11A3, E_37A1], 7)
    assert rep.m == 2
    assert rep.ambient_order == sl2_order(7) ** 2
    assert rep.value == 1
    assert rep.is_lower_bound is False


def test_pair_graph_possible_vacuous_bound():
    rep = type_count_report([E_37A1, E_37A1], 7)
    assert rep.value == 1
    assert rep.is_lower_bound is True


def test_evidence_insufficient_paths():
    with pytest.raises(EvidenceInsufficient):
        type_count_report(E_11A3, 11)  # 11 divides the discriminant
    with pytest.raises(EvidenceInsufficient):
        type_count_report([E_11A3, E_37A1], 5)  # Borel factor blocks the pair


EXCEPTIONAL_ORDER = _CONSISTENT_ORDER["ExceptionalPossible"]


def test_exceptional_order_rule_keeps_the_old_table():
    assert {p: EXCEPTIONAL_ORDER(p) for p in (5, 7, 11, 13)} == \
        {5: 24, 7: 48, 11: 120, 13: 24}


def _mul_mod(x, y, p):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % p, (a * f + b * h) % p,
            (c * e + d * g) % p, (c * f + d * h) % p)


def _pow_mod(x, k, p):
    r = (1, 0, 0, 1)
    for _ in range(k):
        r = _mul_mod(r, x, p)
    return r


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
def test_exceptional_order_rule_matches_a_subgroup_search(p):
    # The binary tetrahedral, octahedral and icosahedral groups (orders 24,
    # 48, 120) are <s, t> with s^3 = t^n = (st)^2 = -1, n = 3, 4, 5.  Every
    # element of order 6 in SL2(F_p) is conjugate in GL2(F_p) to s below, so
    # searching t with s fixed finds each such proper subgroup up to
    # conjugacy, and its order comes from the kernel chain.
    minus = (p - 1, 0, 0, p - 1)
    s = (0, p - 1, 1, 1)
    assert _pow_mod(s, 3, p) == minus
    largest = 0
    for n, order in ((3, 24), (4, 48), (5, 120)):
        for t in _sl2(p):
            if (_pow_mod(t, n, p) == minus
                    and _pow_mod(_mul_mod(s, t, p), 2, p) == minus):
                assert subgroup_order([s, t], p) == order
                if order < sl2_order(p):
                    largest = order
                break
    assert largest == EXCEPTIONAL_ORDER(p)
