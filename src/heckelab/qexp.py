"""Exact integer q-expansions at the cusp.

Truncated power series are plain lists of Python ints, entry t holding the
coefficient of q^t.  Delta/q comes from the sigma_1 recurrence of its
logarithmic derivative, and the j-series is E4^3 divided by Delta/q (the
leading 1/q split off) in one series-division pass; Delta/q has constant
term 1, so every coefficient is an exact integer.  The tests
check Delta against the independent identity E4^3 - E6^2 = 1728*Delta.
Every length of the j-series is read as a prefix of one table, which is
rebuilt only when a longer one is asked for; j^M is j^(M-1) * j.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul


def series_mul(f: list, g: list, K: int) -> list:
    """Product truncated to K terms."""
    out = [0] * K
    for i, fi in enumerate(f):
        if fi == 0 or i >= K:
            continue
        for j, gj in enumerate(g):
            if i + j >= K:
                break
            if gj:
                out[i + j] += fi * gj
    return out


def sigma(n: int, k: int) -> int:
    """Sum of k-th powers of divisors."""
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** k
            e = n // d
            if e != d:
                total += e ** k
        d += 1
    return total


def eisenstein4(K: int) -> list:
    return [1] + [240 * sigma(n, 3) for n in range(1, K)]


def delta_over_q(K: int) -> list:
    """Delta/q = prod (1-q^n)^24 = sum g_m q^m, from its logarithmic
    derivative: q d/dq log prod (1-q^n)^24 = -24 sum sigma_1(k) q^k, so
    m g_m = -24 sum_{k=1..m} sigma_1(k) g_(m-k).  Every division must be
    exact; one that is not raises ArithmeticError."""
    s1 = [sigma(k, 1) for k in range(K)]
    g = [1] + [0] * (K - 1)
    for m in range(1, K):
        total = -24 * sum(map(mul, s1[1:m + 1], g[m - 1::-1]))
        if total % m:
            raise ArithmeticError(f"Delta/q: {total}/{m} at q^{m} is not an integer")
        g[m] = total // m
    return g


# j is summed to DEFAULT_TERMS terms unless its precision asks for more, and
# the first table covers them.  So a default request builds it once: `axiom
# mod1` and `mod2` read Phi_3's 40 terms, then j's 64.
DEFAULT_TERMS = 64
_qj_table: list = []


def _qj_series(n: int) -> list:
    """q*j = E4^3 / (Delta/q) to n terms, by one series division: Delta/q
    has constant term 1, so each coefficient is exact."""
    e4 = eisenstein4(n)
    out = series_mul(series_mul(e4, e4, n), e4, n)
    g = delta_over_q(n)
    for t in range(1, n):
        out[t] -= sum(map(mul, g[1:t + 1], out[t - 1::-1]))
    return out


@lru_cache(maxsize=None)
def j_coefficients(K: int) -> tuple:
    """Coefficients (c_{-1}, c_0, ..., c_{K-1}) of j = sum c_m q^m.

    c_{-1} = 1, c_0 = 744.  A prefix of the shared q*j table.
    """
    if len(_qj_table) < K + 1:
        _qj_table[:] = _qj_series(max(K, DEFAULT_TERMS) + 1)
    return tuple(_qj_table[:K + 1])


@lru_cache(maxsize=None)
def j_power_coefficients(M: int, K: int) -> tuple:
    """Coefficients of j^M from q^{-M} through q^{K-1}, exact.

    Entry t is the coefficient of q^{t-M}.  j^M is j^(M-1), one term longer,
    times j, so the powers one Phi_n reads (M + K fixed) share one chain.
    """
    if M == 0:
        return tuple([1] + [0] * (K - 1))
    return tuple(series_mul(j_power_coefficients(M - 1, K + 1),
                            j_coefficients(K + M - 1), K + M))
