import random

import pytest

from heckelab import qexp
from heckelab.qexp import (
    delta_over_q,
    eisenstein4,
    j_coefficients,
    j_power_coefficients,
    series_mul,
    sigma,
)


def _power(f, e, K):
    # reference: f**e by e products, truncated to K terms
    out = [1] + [0] * (K - 1)
    for _ in range(e):
        out = series_mul(out, f, K)
    return out


def test_series_mul_is_the_truncated_convolution():
    rng = random.Random(2)
    for K in (1, 5, 12):
        f = [rng.randint(-9, 9) for _ in range(rng.randint(1, K + 3))]
        g = [rng.randint(-9, 9) for _ in range(rng.randint(1, K + 3))]
        full = [sum(f[i] * g[t - i] for i in range(len(f))
                    if 0 <= t - i < len(g)) for t in range(K)]
        assert series_mul(f, g, K) == full


def test_j_powers_match_repeated_products():
    # each j^M is built from j^(M-1); the reference multiplies q*j by
    # itself M times, read at a longer length than the chain needs
    for K in (1, 7, 40):
        qj = list(j_coefficients(K + 8))
        for M in range(9):
            assert j_power_coefficients(M, K) == tuple(_power(qj, M, K + M))


def eisenstein6(K):
    return [1] + [-504 * sigma(n, 5) for n in range(1, K)]


def test_eisenstein_cubes_minus_squares_is_1728_delta():
    K = 41  # through q^40
    e4, e6 = eisenstein4(K), eisenstein6(K)
    lhs = [a - b for a, b in zip(series_mul(series_mul(e4, e4, K), e4, K),
                                 series_mul(e6, e6, K))]
    delta = [0] + delta_over_q(K - 1)  # Delta = q * prod (1 - q^n)^24
    assert delta[:4] == [0, 1, -24, 252]
    assert lhs == [1728 * c for c in delta]


def test_j_coefficients_are_prefixes_of_one_table(monkeypatch):
    monkeypatch.setattr(qexp, "_qj_table", [])
    j_coefficients.cache_clear()
    short, long = j_coefficients(32), j_coefficients(128)
    assert short[:4] == (1, 744, 196884, 21493760)
    assert long[:33] == short
    # the same numbers as E4^3/Delta built at exactly that length
    assert tuple(qexp._qj_series(33)) == short
    assert tuple(qexp._qj_series(129)) == long


def _pentagonal_delta_over_q(K):
    # reference: Euler's pentagonal-number series prod (1 - q^n), then
    # its 24th power
    euler = [0] * K
    k = 0
    while k * (3 * k - 1) // 2 < K:
        for kk in {k, -k}:
            e = kk * (3 * kk - 1) // 2
            if e < K:
                euler[e] += -1 if kk % 2 else 1
        k += 1
    return _power(euler, 24, K)


def _series_inv(f, K):
    # reference: inverse of a series with constant term 1, term by term
    out = [1] + [0] * (K - 1)
    for t in range(1, K):
        out[t] = -sum(f[s] * out[t - s] for s in range(1, t + 1))
    return out


def test_recurrence_matches_pentagonal_route():
    K = 200
    ref = _pentagonal_delta_over_q(K)
    assert ref[:4] == [1, -24, 252, -1472]
    assert delta_over_q(K) == ref
    e4cubed = _power(eisenstein4(K), 3, K)
    assert qexp._qj_series(K) == series_mul(e4cubed, _series_inv(ref, K), K)


def test_corrupted_sigma_trips_the_exact_division(monkeypatch):
    # sigma_1(5) = 6 read as 7 moves 5 * g_5 by -24, which 5 does not divide
    real = qexp.sigma
    monkeypatch.setattr(qexp, "sigma", lambda n, k: real(n, k) + ((n, k) == (5, 1)))
    with pytest.raises(ArithmeticError, match="q\\^5"):
        delta_over_q(10)
    assert delta_over_q(5) == _pentagonal_delta_over_q(5)
