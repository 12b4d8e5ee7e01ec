import random

from heckelab.qexp import series_mul, series_pow


def test_series_pow_matches_repeated_mul():
    rng = random.Random(2)
    for K in (1, 5, 12):
        f = [rng.randint(-9, 9) for _ in range(rng.randint(1, K + 3))]
        expected = [1] + [0] * (K - 1)
        for e in range(9):
            assert series_pow(f, e, K) == expected
            expected = series_mul(expected, f, K)
