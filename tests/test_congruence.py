import random
from fractions import Fraction
from math import gcd

import pytest

from heckelab.congruence import (
    FiniteMatrixGroup,
    Subgroup,
    cap,
    closure,
    compatibility_divisor,
    enumerate_sl2,
    format_group,
    full,
    gamma0,
    gamma1,
    image_at_level,
    index,
    is_normal,
    lift_to_sl2z,
    membership,
    normal_core,
    parent_generators,
    parse_group,
    principal,
    required_level,
    sl2_order,
    subgroup_order,
    torsion_advisory,
)
from heckelab.errors import BadDeterminant, IncompatibleLevel, LevelTooLarge
from heckelab.moebius import ElementKind, RatMatrix, classify


def test_membership_gamma1():
    assert membership(gamma1(4), RatMatrix(1, 1, 0, 1))
    assert not membership(gamma1(4), RatMatrix(1, 0, 1, 1))
    assert membership(gamma1(4), RatMatrix(5, 1, 4, 1))
    assert not membership(gamma1(4), RatMatrix(1, Fraction(1, 2), 0, 1))


def test_membership_tower():
    rng = random.Random(3)
    fmg = enumerate_sl2(6)
    for _ in range(60):
        m = rng.choice(fmg.elements)
        g = lift_to_sl2z(m, 6)
        if membership(principal(6), g):
            assert membership(gamma1(6), g)
        if membership(gamma1(6), g):
            assert membership(gamma0(6), g)
        assert membership(full(), g)


def test_membership_cap_diag():
    G = cap(full(), [RatMatrix(1, 0, 0, 2)])
    assert not membership(G, RatMatrix(1, 1, 0, 1))
    assert membership(G, RatMatrix(1, 2, 0, 1))


def test_membership_requires_sl2z():
    assert not membership(full(), RatMatrix(2, 0, 0, 1))
    assert not membership(full(), RatMatrix(1, Fraction(1, 2), 0, 1))


def test_enumerate_orders():
    assert len(enumerate_sl2(2)) == 6
    assert len(enumerate_sl2(5)) == 120
    assert len(enumerate_sl2(24)) == 9216


def test_order_formula_small():
    for N in range(1, 16):
        assert len(enumerate_sl2(N)) == sl2_order(N)


def test_level_too_large():
    with pytest.raises(LevelTooLarge):
        enumerate_sl2(31)


def test_group_closure_sampled():
    fmg = enumerate_sl2(6)
    rng = random.Random(9)
    for _ in range(100):
        m1 = rng.choice(fmg.elements)
        m2 = rng.choice(fmg.elements)
        assert fmg.mul(m1, m2) in fmg
        assert fmg.mul(m1, fmg.inv(m1)) == fmg.identity


def test_parent_generators_generate():
    for N in (2, 3, 4, 5, 6):
        fmg = enumerate_sl2(N)
        sub = Subgroup.generated(fmg, parent_generators(fmg))
        assert len(sub) == len(fmg)


def test_closure_is_a_subgroup():
    rng = random.Random(4)
    for N in (1, 6, 12, 25):
        fmg = enumerate_sl2(N)
        for _ in range(4):
            gens = rng.sample(fmg.elements, min(2, len(fmg)))
            H = closure(gens, N)
            assert H <= set(fmg.elements)
            assert all(fmg.mul(h, g) in H for h in H for g in gens)
            assert sl2_order(N) % len(H) == 0


def _st_word(rng):
    """A seeded word of 1 to 12 letters in S, T and their inverses."""
    w = (1, 0, 0, 1)
    for _ in range(rng.randint(1, 12)):
        a, b, c, d = w
        e, f, g, h = rng.choice([(0, -1, 1, 0), (0, 1, -1, 0),
                                 (1, 1, 0, 1), (1, -1, 0, 1)])
        w = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    return w


def _kernel_layer_sets(N, p):
    """Generators I + mX, m = N/p, paired with the F_p-rank of the X's:
    every rank 0..3 of the abelian layer ker(SL2(Z/N) -> SL2(Z/m))."""
    m = N // p
    return [([], 0), ([(1, 0, 0, 1)], 0), ([(1, m, 0, 1)], 1),
            ([(1, 0, m, 1)], 1), ([(1 + m, 0, 0, 1 - m)], 1),
            ([(1, m, 0, 1), (1, 2 * m, 0, 1)], 1),
            ([(1, m, 0, 1), (1, 0, m, 1)], 2),
            ([(1 + m, 0, 0, 1 - m), (1, 0, m, 1)], 2),
            ([(1 + m, 0, 0, 1 - m), (1, m, 0, 1), (1, 0, m, 1)], 3),
            ([(1 + m, m, 0, 1 - m), (1, m, 0, 1), (1, m, m, 1 - m)], 3)]


def test_subgroup_order_matches_closure():
    rng = random.Random(30)
    full_group = [(0, -1, 1, 0), (1, 1, 0, 1)]
    for N in list(range(1, 31)) + [32, 49]:
        sets = [full_group, []] + [
            [_st_word(rng) for _ in range(rng.randint(1, 3))]
            for _ in range(8)]
        for gens in sets:
            assert subgroup_order(gens, N) == len(closure(gens, N)), (N, gens)
    for N, p in ((4, 2), (8, 2), (16, 2), (9, 3), (27, 3), (25, 5), (49, 7),
                 (125, 5)):  # 125: the last of three layers 5 | 25 | 125
        for gens, rank in _kernel_layer_sets(N, p):
            assert len(closure(gens, N)) == p ** rank, (N, gens)
            assert subgroup_order(gens, N) == p ** rank, (N, gens)


def test_subgroup_order_beyond_the_closure_oracle():
    """Levels no closure reaches cheaply, against the order formulas."""
    S, T = (0, -1, 1, 0), (1, 1, 0, 1)
    for N in (64, 210, 625, 1001):
        assert subgroup_order([S, T], N) == sl2_order(N), N
    # <T, diag(u, 1/u)> is the image of Gamma0(N), of order N * phi(N),
    # so [SL2 : Gamma0(N)] = N * prod(1 + 1/p)
    for N, psi in ((30, 72), (64, 96), (81, 108), (121, 132), (210, 576)):
        units = [u for u in range(1, N) if gcd(u, N) == 1]
        phi = len(units)
        gens = [T] + [(u, 0, 0, pow(u, -1, N)) for u in units]
        assert subgroup_order(gens, N) == N * phi, N
        assert sl2_order(N) // (N * phi) == psi, N


@pytest.mark.parametrize("N", [0, -5])
def test_orders_need_a_positive_level(N):
    with pytest.raises(ValueError):
        subgroup_order([(1, 1, 0, 1)], N)
    with pytest.raises(ValueError):
        closure([(1, 1, 0, 1)], N)


def test_lift_round_trip():
    for N in range(1, 13):
        fmg = enumerate_sl2(N)
        for m in fmg:
            lift = lift_to_sl2z(m, N)
            assert lift.in_sl2z()
            assert fmg.reduce(lift) == m


def test_lift_examples():
    assert lift_to_sl2z((1, 0, 0, 1), 5) == RatMatrix.identity()
    g = lift_to_sl2z((0, 4, 1, 0), 5)
    assert g.det() == 1 and tuple(int(e) % 5 for e in g.entries()) == (0, 4, 1, 0)
    g = lift_to_sl2z((2, 0, 0, 3), 5)
    assert g.det() == 1 and tuple(int(e) % 5 for e in g.entries()) == (2, 0, 0, 3)


def test_lift_bad_determinant():
    with pytest.raises(BadDeterminant):
        lift_to_sl2z((2, 0, 0, 2), 5)


def test_image_gamma0_2():
    img = image_at_level(gamma0(2), 2)
    assert len(img) == 2
    assert img.index() == 3


def test_image_cap_diag_level2():
    img = image_at_level(cap(full(), [RatMatrix(1, 0, 0, 2)]), 2)
    assert sorted(img.elements) == [(1, 0, 0, 1), (1, 0, 1, 1)]
    assert img.index() == 3


def test_image_principal_is_trivial():
    img = image_at_level(principal(2), 2)
    assert len(img) == 1
    assert img.index() == 6


def test_image_incompatible_level():
    with pytest.raises(IncompatibleLevel):
        image_at_level(gamma0(2), 3)
    with pytest.raises(IncompatibleLevel):
        image_at_level(cap(full(), [RatMatrix(1, 0, 0, 2)]), 3)


def test_required_levels():
    assert required_level(full()) == 1
    assert required_level(gamma0(8)) == 8
    G = cap(full(), [RatMatrix(1, 0, 0, 2)])
    assert compatibility_divisor(G) == 2
    assert required_level(G) == 4  # conservative square


def test_index_examples():
    assert index(gamma0(2)) == 3
    assert index(principal(5)) == 120
    assert index(full()) == 1


def test_index_tower_multiplicative():
    # [G : Gamma(4)] = [G : Gamma(2)] [Gamma(2) : Gamma(4)]
    a = index(principal(4))
    b = index(principal(2))
    c = index(principal(4), principal(2))
    assert a == b * c


def test_index_gamma0_formula():
    # psi(N) = N * prod_{p|N} (1 + 1/p), exact in integers
    for N in (2, 3, 4, 5, 6, 8):
        psi = N
        for p in _prime_divisors(N):
            psi = psi // p * (p + 1)
        assert index(gamma0(N)) == psi


def test_index_gamma1_formula():
    for N in (3, 4, 5, 6, 8):
        want = N * N
        for p in _prime_divisors(N):
            want = want // (p * p) * (p * p - 1)
        assert index(gamma1(N)) == want


def _prime_divisors(N):
    out, n, p = [], N, 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _is_prime(p):
    return p > 1 and all(p % q for q in range(2, int(p ** 0.5) + 1))


def test_crt_isomorphism():
    for M, N in [(2, 3), (3, 4), (4, 5)]:
        big = enumerate_sl2(M * N)
        assert len(big) == sl2_order(M) * sl2_order(N)
        pairs = {
            (tuple(v % M for v in m), tuple(v % N for v in m)) for m in big
        }
        assert len(pairs) == len(big)  # reduction pair map is injective
        rng = random.Random(M * 31 + N)
        small_m, small_n = enumerate_sl2(M), enumerate_sl2(N)
        for _ in range(50):
            x, y = rng.choice(big.elements), rng.choice(big.elements)
            z = big.mul(x, y)
            rm = small_m.mul(tuple(v % M for v in x), tuple(v % M for v in y))
            rn = small_n.mul(tuple(v % N for v in x), tuple(v % N for v in y))
            assert tuple(v % M for v in z) == rm
            assert tuple(v % N for v in z) == rn


def test_is_normal_examples():
    assert is_normal(image_at_level(principal(2), 4))
    h = image_at_level(gamma0(2), 2)
    assert not is_normal(h)
    assert len(normal_core(h)) == 1


def test_normal_core_gamma0_4():
    h = image_at_level(gamma0(4), 4)
    core = normal_core(h)
    assert is_normal(core)
    assert core.elements <= h.elements
    assert image_at_level(principal(4), 4).elements <= core.elements


def test_normal_core_is_maximal_normal_inside():
    # every normal subgroup of the parent inside H sits inside the core
    fmg = enumerate_sl2(4)
    h = image_at_level(gamma0(4), 4)
    core = normal_core(h)
    center = Subgroup(fmg, {fmg.identity, (3, 0, 0, 3)})
    assert is_normal(center)
    assert center.elements <= h.elements
    assert center.elements <= core.elements


def test_cap_image_monotone_shrink():
    # growing the conjugating tuple can only cut the image down
    rng = random.Random(17)
    mats = []
    for _ in range(5):
        while True:
            try:
                g = RatMatrix(rng.randint(-3, 3), rng.randint(-3, 3),
                              rng.randint(-3, 3), rng.randint(-3, 3))
                break
            except ValueError:
                continue
        mats.append(g)
        L = 2 * _lcm_dets(mats)
        if L > 30:
            break
        smaller = len(image_at_level(cap(principal(2), mats), L))
        prev_group = cap(principal(2), mats[:-1]) if len(mats) > 1 else principal(2)
        assert smaller <= len(image_at_level(prev_group, L))


def _lcm_dets(mats):
    out = 1
    for g in mats:
        d = int(g.normalized().det())
        out = out * d // gcd(out, d)
    return out


def test_descriptor_round_trip():
    for s in ["Gamma", "Gamma(6)", "Gamma0(8)", "Gamma1(4)",
              "Cap(Gamma, [[[1,0],[0,2]]])", "Cap(Gamma0(2), [[[1,0],[0,2]]])"]:
        assert format_group(parse_group(s)) == s
    with pytest.raises(ValueError):
        parse_group("Delta(3)")


def test_subgroup_report_shape():
    img = image_at_level(gamma0(2), 2)
    d = img.to_dict()
    assert d["modulus"] == 2 and d["order"] == 2 and d["index"] == 3


def test_torsion_advisory_flags_are_elliptic():
    hits = torsion_advisory(full(), 4)
    for m in hits:
        assert classify(lift_to_sl2z(m, 4)).kind is ElementKind.ELLIPTIC
    # Gamma(3) is torsion-free; its level-3 image is trivial, advisory empty
    assert torsion_advisory(principal(3), 3) == []
