import random
from math import gcd

import pytest

from heckelab.congruence import closure, sl2_order, subgroup_order
from heckelab.hecke import psi

S, T = (0, -1, 1, 0), (1, 1, 0, 1)


def _mul(m1, m2, N):
    a, b, c, d = m1
    e, f, g, h = m2
    return ((a * e + b * g) % N, (a * f + b * h) % N,
            (c * e + d * g) % N, (c * f + d * h) % N)


def _sl2(N):
    """All of SL2(Z/N), listed by closing S and T, sorted."""
    return sorted(closure([S, T], N))


def test_enumerate_orders():
    assert len(closure([S, T], 2)) == 6
    assert len(closure([S, T], 5)) == 120
    assert len(closure([S, T], 24)) == 9216


def test_order_formula_small():
    for N in range(1, 16):
        assert len(closure([S, T], N)) == sl2_order(N)


def test_group_closure_sampled():
    elements = _sl2(6)
    group = set(elements)
    rng = random.Random(9)
    for _ in range(100):
        m1 = rng.choice(elements)
        m2 = rng.choice(elements)
        assert _mul(m1, m2, 6) in group
        a, b, c, d = m1  # det 1, so the adjugate is the inverse
        assert _mul(m1, (d, -b % 6, -c % 6, a), 6) == (1, 0, 0, 1)


def test_closure_is_a_subgroup():
    rng = random.Random(4)
    for N in (1, 6, 12, 25):
        elements = _sl2(N)
        for _ in range(4):
            gens = rng.sample(elements, min(2, len(elements)))
            H = closure(gens, N)
            assert H <= set(elements)
            assert all(_mul(h, g, N) in H for h in H for g in gens)
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
    for N in (64, 210, 625, 1001):
        assert subgroup_order([S, T], N) == sl2_order(N), N
    # Gamma0(210) mod 210 has order 210 * phi(210) and index psi(210)
    assert subgroup_order(_gamma0_gens(210), 210) == 210 * 48
    assert sl2_order(210) // (210 * 48) == 576


@pytest.mark.parametrize("N", [0, -5])
def test_orders_need_a_positive_level(N):
    with pytest.raises(ValueError):
        subgroup_order([(1, 1, 0, 1)], N)
    with pytest.raises(ValueError):
        closure([(1, 1, 0, 1)], N)


def _gamma0_gens(N):
    """T and diag(u, u^-1) over the units u: Gamma0(N) mod N, the upper
    triangular matrices of SL2(Z/N)."""
    return [T] + [(u, 0, 0, pow(u, -1, N)) for u in range(1, N)
                  if gcd(u, N) == 1]


def test_index_examples():
    # a congruence subgroup of level N contains Gamma(N), the kernel of
    # reduction mod N, so its index is |SL2(Z/N)| over the order of its
    # image mod N
    assert sl2_order(5) // subgroup_order([], 5) == 120  # Gamma(5)
    assert sl2_order(1) // subgroup_order([S, T], 1) == 1


def test_index_tower_multiplicative():
    # [SL2(Z) : Gamma(4)] = [SL2(Z) : Gamma(2)] [Gamma(2) : Gamma(4)], with
    # Gamma(2) generated by T^2, its transpose and -I
    gamma2 = [(1, 2, 0, 1), (1, 0, 2, 1), (-1, 0, 0, -1)]
    assert subgroup_order(gamma2, 2) == 1
    assert sl2_order(4) == sl2_order(2) * subgroup_order(gamma2, 4)


def test_index_gamma0_formula():
    # [SL2(Z) : Gamma0(N)] = psi(N) = N * prod_{p | N} (1 + 1/p)
    for N in range(2, 200):
        order = subgroup_order(_gamma0_gens(N), N)
        assert sl2_order(N) % order == 0, N
        assert sl2_order(N) // order == psi(N), N


def test_index_gamma1_formula():
    # Gamma1(N) mod N is generated by T alone, so it has order N and
    # [SL2(Z) : Gamma1(N)] = N^2 * prod_{p | N} (1 - 1/p^2)
    for N in range(2, 200):
        assert subgroup_order([T], N) == N, N
        want = N * N
        for p in _prime_divisors(N):
            want = want // (p * p) * (p * p - 1)
        assert sl2_order(N) // N == want, N


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


def test_crt_isomorphism():
    for M, N in [(2, 3), (3, 4), (4, 5)]:
        big = _sl2(M * N)
        assert len(big) == sl2_order(M) * sl2_order(N)
        pairs = {
            (tuple(v % M for v in m), tuple(v % N for v in m)) for m in big
        }
        assert len(pairs) == len(big)  # reduction pair map is injective
        rng = random.Random(M * 31 + N)
        for _ in range(50):
            x, y = rng.choice(big), rng.choice(big)
            z = _mul(x, y, M * N)
            rm = _mul(tuple(v % M for v in x), tuple(v % M for v in y), M)
            rn = _mul(tuple(v % N for v in x), tuple(v % N for v in y), N)
            assert tuple(v % M for v in z) == rm
            assert tuple(v % N for v in z) == rn
