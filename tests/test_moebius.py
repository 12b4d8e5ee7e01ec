import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab import moebius
from heckelab.errors import NotElliptic
from heckelab.moebius import (
    CMPoint,
    ElementKind,
    NumericPoint,
    RatMatrix,
    act,
    classify,
    factor,
    fixed_point,
    fraction_str,
    parse_matrix,
    special_witness,
    squarefree_decompose,
)

I_PT = CMPoint(-1, 0, 1)
ZETA_PT = CMPoint(-3, Fraction(1, 2), Fraction(1, 2))
S = RatMatrix(0, -1, 1, 0)
T = RatMatrix(1, 1, 0, 1)

SQUAREFREE_NEG = [d for d in range(-1, -51, -1) if squarefree_decompose(d)[0] == 1]


def random_cm_point(rng):
    D = rng.choice(SQUAREFREE_NEG)
    x = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
    y = Fraction(rng.randint(1, 20), rng.randint(1, 20))
    return CMPoint(D, x, y)


def random_gl2q_pos(rng):
    while True:
        ents = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
        if ents[0] * ents[3] - ents[1] * ents[2] > 0:
            return RatMatrix(*ents)


def test_act_translation():
    assert act(T, I_PT) == CMPoint(-1, 1, 1)


def test_act_inversion_fixes_i():
    assert act(S, I_PT) == I_PT


def test_act_scaling_zeta():
    got = act(RatMatrix(2, 0, 0, 1), ZETA_PT)
    assert got == CMPoint(-3, 1, 1)


def test_act_numeric_inversion():
    tau = NumericPoint(0.0, 2.0)
    out = act(S, tau)
    assert abs(out.re) < 1e-15
    assert abs(out.im - 0.5) < 1e-15


def test_classify_examples():
    assert classify(S).kind is ElementKind.ELLIPTIC
    assert classify(S).disc == -4
    assert classify(T).kind is ElementKind.PARABOLIC
    assert classify(T).disc == 0
    assert classify(RatMatrix(2, 0, 0, 1)).kind is ElementKind.HYPERBOLIC
    assert classify(RatMatrix(2, 0, 0, 1)).disc == 1
    assert classify(RatMatrix(3, 0, 0, 3)).kind is ElementKind.SCALAR


def test_fixed_point_inversion():
    assert fixed_point(S) == I_PT


def test_fixed_point_order_six():
    assert fixed_point(RatMatrix(0, -1, 1, -1)) == ZETA_PT


def test_fixed_point_rejects_non_elliptic():
    with pytest.raises(NotElliptic):
        fixed_point(RatMatrix(2, 0, 0, 1))
    with pytest.raises(NotElliptic):
        fixed_point(T)
    with pytest.raises(NotElliptic):
        fixed_point(RatMatrix(5, 0, 0, 5))


def test_special_witness_examples():
    assert special_witness(I_PT) == S
    assert special_witness(ZETA_PT) == RatMatrix(0, -1, 1, -1)
    tau = CMPoint(-5, 2, 1)  # z^2 - 4z + 9
    g = special_witness(tau)
    assert g.in_sl2z() or g.is_integral()
    assert fixed_point(g) == tau


def test_witness_round_trip_random():
    rng = random.Random(7)
    for _ in range(200):
        tau = random_cm_point(rng)
        g = special_witness(tau)
        assert g.is_integral()
        assert g.c > 0
        assert classify(g).kind is ElementKind.ELLIPTIC
        assert fixed_point(g) == tau
        assert act(g, tau) == tau


def test_fixed_point_is_fixed_random():
    # random elliptic matrices via conjugation of rotations
    rng = random.Random(11)
    for _ in range(100):
        h = random_gl2q_pos(rng)
        g = h * RatMatrix(0, -1, 1, 0) * h.inverse()
        assert classify(g).kind is ElementKind.ELLIPTIC
        tau = fixed_point(g)
        assert act(g, tau) == tau


def test_group_action_composition():
    rng = random.Random(23)
    for _ in range(100):
        g = random_gl2q_pos(rng)
        h = random_gl2q_pos(rng)
        tau = random_cm_point(rng)
        assert act(g * h, tau) == act(g, act(h, tau))


def test_projective_scale_invariance():
    rng = random.Random(5)
    for _ in range(50):
        tau = random_cm_point(rng)
        g = special_witness(tau)
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert fixed_point(g.scale(lam)) == fixed_point(g)
        assert act(g.scale(lam), tau) == act(g, tau)


def test_classify_conjugation_sign_invariance():
    rng = random.Random(31)
    mats = [S, T, RatMatrix(2, 0, 0, 1), RatMatrix(1, 2, 3, 7)]
    for g in mats:
        base = classify(g)
        for _ in range(20):
            h = random_gl2q_pos(rng)
            conj = classify(h * g * h.inverse())
            assert conj.kind is base.kind
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = classify(g.scale(lam))
        if base.kind in (ElementKind.ELLIPTIC, ElementKind.HYPERBOLIC):
            assert scaled.kind is base.kind  # disc scales by lam^2, sign survives


M127 = 2 ** 127 - 1  # a prime


def test_factor_rebuilds_n_from_primes():
    primes = {p for p in range(2, 10 ** 4 + 1)
              if all(p % q for q in range(2, int(p ** 0.5) + 1))}
    for n in range(1, 10 ** 4 + 1):
        f = factor(n)
        assert list(f) == sorted(f) and set(f) <= primes, n
        assert math.prod(p ** e for p, e in f.items()) == n, n


def test_factor_refuses_above_its_limit():
    for n in (M127, 4 * M127):
        with pytest.raises(ValueError, match="FACTOR_LIMIT"):
            factor(n)
    assert factor(10 ** 12 + 39) == {10 ** 12 + 39: 1}  # a prime
    assert factor(2 ** 40 * 999983) == {2: 40, 999983: 1}
    with pytest.raises(ValueError):
        factor(0)


def test_squarefree_decompose_brute_force():
    for n in range(1, 2001):
        m = max(k for k in range(1, n + 1) if n % (k * k) == 0)
        assert squarefree_decompose(n) == (m, n // (m * m)), n
        assert squarefree_decompose(-n) == (m, -n // (m * m)), n


@given(st.integers(min_value=-10000, max_value=10000).filter(lambda n: n != 0))
def test_squarefree_decompose_law(n):
    m, d = squarefree_decompose(n)
    assert m > 0
    assert m * m * d == n
    assert squarefree_decompose(d)[0] == 1


@settings(max_examples=200)
@given(
    st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)
)
def test_normalized_preserves_action(a, b, c, d):
    if a * d - b * c <= 0:
        return
    g = RatMatrix(a, b, c, d)
    n = g.normalized()
    assert n.is_integral()
    assert act(n, I_PT) == act(g, I_PT)
    assert act(n, ZETA_PT) == act(g, ZETA_PT)


def test_matrix_parse_round_trip():
    for s in ["[[0,-1],[1,0]]", "[[1,-1/2],[0,1]]", "[[2,0],[0,1]]"]:
        assert str(parse_matrix(s)) == s
    with pytest.raises(ValueError):
        parse_matrix("[[1,2],[3]]")
    with pytest.raises(ValueError):
        parse_matrix("[[1,2],[3,4]] junk")


def test_fraction_str():
    assert fraction_str(Fraction(3)) == "3"
    assert fraction_str(Fraction(-3, 2)) == "-3/2"


def test_cmpoint_validation():
    with pytest.raises(ValueError):
        CMPoint(-4, 0, 1)  # not squarefree
    with pytest.raises(ValueError):
        CMPoint(1, 0, 1)  # not negative
    with pytest.raises(ValueError):
        CMPoint(-1, 0, -1)  # lower half-plane
    assert I_PT.to_dict() == {"D": -1, "x": "0", "y": "1"}


def test_cmpoint_factors_each_d_once(monkeypatch):
    # act builds a new point with the same D at every step; D is a prime
    # near 10^12, whose trial division is the cost of a construction
    calls = []

    def spy(n):
        calls.append(n)
        return factor(n)

    monkeypatch.setattr(moebius, "factor", spy)
    D = -(10 ** 12 + 39)  # no other test builds a point with this D
    tau = CMPoint(D, 0, 1)
    for _ in range(10):
        tau = act(T, tau)
    assert calls == [-D]
    assert tau == CMPoint(D, 10, 1)


def test_ratmatrix_validation():
    with pytest.raises(ValueError):
        RatMatrix(1, 0, 0, -1)
    with pytest.raises(ValueError):
        RatMatrix(1, 2, 2, 4)


def test_ratmatrix_has_no_sequence_arithmetic():
    # a tuple would concatenate or repeat the four entries
    m = RatMatrix(2, 1, 0, 3)
    with pytest.raises(TypeError, match="RatMatrix and RatMatrix"):
        m + m
    with pytest.raises(TypeError, match="RatMatrix and int"):
        2 * m
    with pytest.raises(TypeError, match="'RatMatrix' and 'int'"):
        m * 2
    with pytest.raises(TypeError, match="RatMatrix and tuple"):
        (1,) + m
    assert m * m == RatMatrix(4, 5, 0, 9)


def test_numeric_point_validation():
    with pytest.raises(ValueError):
        NumericPoint(0.0, -1.0)
    with pytest.raises(ValueError):
        NumericPoint(0.0, 1.0, prec_bits=32)
