"""Exact integer q-expansions at the cusp.

Truncated power series are plain lists of Python ints, entry t holding the
coefficient of q^t.  The j-series is produced as E4^3 / Delta with the
leading 1/q split off, so every coefficient is an exact integer; the
E4^3 - E6^2 = 1728*Delta identity gives an independent consistency check.
Every length of the j-series is read as a prefix of one table, which is
rebuilt only when a longer one is asked for.
"""

from __future__ import annotations

from functools import lru_cache


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


def series_pow(f: list, e: int, K: int) -> list:
    """f**e truncated to K terms, by binary powering."""
    result = None
    base = list(f[:K]) + [0] * max(0, K - len(f))
    while e:
        if e & 1:
            result = base if result is None else series_mul(result, base, K)
        e >>= 1
        if e:
            base = series_mul(base, base, K)
    return [1] + [0] * (K - 1) if result is None else result


def series_inv(f: list, K: int) -> list:
    """Multiplicative inverse of a unit series (f[0] = +-1), exact."""
    if f[0] not in (1, -1):
        raise ValueError("series inverse needs unit constant term")
    u = f[0]
    out = [u] + [0] * (K - 1)
    for t in range(1, K):
        acc = 0
        for s in range(1, t + 1):
            if s < len(f) and f[s]:
                acc += f[s] * out[t - s]
        out[t] = -u * acc
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


def eisenstein6(K: int) -> list:
    return [1] + [-504 * sigma(n, 5) for n in range(1, K)]


def delta_over_q(K: int) -> list:
    """Delta/q = prod (1-q^n)^24, via the pentagonal-number expansion."""
    euler = [0] * K
    k = 0
    while True:
        placed = False
        for kk in (k, -k) if k else (0,):
            e = kk * (3 * kk - 1) // 2
            if e < K:
                euler[e] += -1 if kk % 2 else 1
                placed = True
        if not placed:
            break
        k += 1
    return series_pow(euler, 24, K)


# j is summed to DEFAULT_TERMS terms unless a context asks for more, and the
# first table covers them.  So a default request builds it once: `axiom
# mod1` and `mod2` read Phi_3's 76 terms before j's 64.
DEFAULT_TERMS = 64
_qj_table: list = []


def _qj_series(n: int) -> list:
    """q*j = E4^3 * (Delta/q)^{-1} to n terms."""
    e4cubed = series_pow(eisenstein4(n), 3, n)
    return series_mul(e4cubed, series_inv(delta_over_q(n), n), n)


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

    Entry t is the coefficient of q^{t-M}; j^0 = 1.
    """
    if M == 0:
        return tuple([1] + [0] * (K - 1))
    qj = list(j_coefficients(K + M - 1))  # (q*j) to enough terms
    prod = series_pow(qj, M, K + M)
    return tuple(prod)
