"""Per-prime cost of Frobenius-trace counting, by method and ell bin.

    python3 tools/bench_count.py [--src DIR]... [--rounds N] [--out PATH]
    python3 tools/bench_count.py --crossover [--src DIR] [--rounds N]

For each source tree (default: this checkout's src/) it times
`galois.count_points(curve, ell, method)` for "exhaustive" and "bsgs" on
six fixed seeded curves, as microseconds per prime of good reduction in
the ell bins of BINS, a `frobenius_sample(curve, 2000)` per curve with the
trace cache cleared first, and the same sample served from a filled cache
to a curve parsed again from its text on every call, as a long-lived
caller's repeated request is.  Each round spawns one fresh worker
process per tree; each (method, bin), the cold samples and the cache hits
are then timed tree after tree, the order alternating from one of these
jobs to the next and from round to round, so both trees' figures for a
bin are taken moments apart, under the same host conditions.  A tree may
be given twice, to see the spread on identical code.  Each figure
written is the median over rounds.  The JSON (default BENCH_count.json at
the root of the checkout) records nproc, the Python version and each
tree's git commit, the trees in --src order.

--crossover compares the two methods within one tree instead, for
choosing galois.BSGS_CUTOFF: on each (curve, good ell) in CROSSOVER_BINS
it alternates the methods --rounds times in one process and keeps the
median time of each, so a change of host speed reaches both alike, and
prints per bin the ratio of the bsgs sum to the exhaustive sum and on how
many primes bsgs was faster.  It writes no file.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BINS = ((50, 100), (100, 150), (150, 200), (200, 300), (300, 1000),
        (1000, 3000))
CROSSOVER_BINS = ((60, 80), (80, 100), (100, 110), (110, 120), (120, 150),
                  (150, 200))
METHODS = ("exhaustive", "bsgs")
SAMPLE_BOUND = 2000
HIT_CALLS = 20  # timed cache-hit samples per curve and round


def _curves(galois):
    """11a3, 37a1 and four long Weierstrass models drawn from a fixed seed."""
    rng = random.Random(20261019)
    curves = [galois.parse_curve("[0,-1,1,0,0]"),
              galois.parse_curve("[0,0,1,-1,0]")]
    while len(curves) < 6:
        try:
            curves.append(galois.EllipticCurve(
                *(rng.randrange(-30, 31) for _ in range(5))))
        except ValueError:
            continue
    return curves


# Worker side: each spawned worker serves one tree for one round.
_TREE = {}


def _setup(src):
    """Import the heckelab under `src`, list the (curve, ell) of every bin
    and warm the interpreter; return the curves as text."""
    sys.path.insert(0, src)
    from heckelab import galois
    if not galois.__file__.startswith(os.path.abspath(src)):
        raise RuntimeError(f"heckelab resolved to {galois.__file__}")
    curves = _curves(galois)
    pairs = {}
    for lo, hi in BINS:
        ells = [ell for ell in galois.primes_upto(hi - 1) if ell >= lo]
        pairs[lo, hi] = [(c, ell) for c in curves for ell in ells
                         if c.discriminant().numerator % ell]
    for c, ell in pairs[BINS[0]][:20]:  # warm the interpreter and imports
        for method in METHODS:
            galois.count_points(c, ell, method)
    _TREE.update(galois=galois, curves=curves, pairs=pairs)
    return [str(c) for c in curves]


def _per_prime_us(method, lo, hi):
    galois, todo = _TREE["galois"], _TREE["pairs"][lo, hi]
    t0 = time.perf_counter()
    for c, ell in todo:
        galois.count_points(c, ell, method)
    return (time.perf_counter() - t0) / len(todo) * 1e6


def _sample_ms():
    """Mean over the curves of one frobenius_sample from a cleared cache."""
    galois, out = _TREE["galois"], []
    for c in _TREE["curves"]:
        galois._a_ell.cache_clear()
        t0 = time.perf_counter()
        galois.frobenius_sample(c, SAMPLE_BOUND)
        out.append((time.perf_counter() - t0) * 1e3)
    return statistics.mean(out)


def _hit_ms():
    """Mean over the curves of a cache-served sample of a re-parsed curve."""
    galois, out = _TREE["galois"], []
    for c in _TREE["curves"]:
        text = str(c)
        galois.frobenius_sample(galois.parse_curve(text), SAMPLE_BOUND)
        t0 = time.perf_counter()
        for _ in range(HIT_CALLS):
            galois.frobenius_sample(galois.parse_curve(text), SAMPLE_BOUND)
        out.append((time.perf_counter() - t0) / HIT_CALLS * 1e3)
    galois._a_ell.cache_clear()
    return statistics.mean(out)


def _awake():
    """A no-op: one round trip to a worker just before its timed job."""


# (where the result goes, function, arguments), in the order timed
JOBS = ([((m, f"{lo}-{hi}"), _per_prime_us, (m, lo, hi))
         for m in METHODS for lo, hi in BINS]
        + [("frobenius_sample_ms", _sample_ms, ()),
           ("frobenius_hit_ms", _hit_ms, ())])


def measure_round(srcs, r):
    """One round: a fresh spawned worker per tree, then every job of JOBS
    timed tree after tree, the order alternating with the job and round.
    Returns one result per tree, in `srcs` order."""
    spawn = get_context("spawn")
    pools = [ProcessPoolExecutor(1, mp_context=spawn) for _ in srcs]
    try:
        out = [{"curves": pool.submit(_setup, src).result(),
                "per_prime_us": {m: {} for m in METHODS}}
               for pool, src in zip(pools, srcs)]
        trees = range(len(srcs))
        for i, (key, fn, args) in enumerate(JOBS):
            for t in trees if (r + i) % 2 == 0 else trees[::-1]:
                # without this round trip, whichever tree went first read
                # up to 1.7x slower than the other on bins of 1-50 ms
                pools[t].submit(_awake).result()
                value = pools[t].submit(fn, *args).result()
                if isinstance(key, tuple):
                    method, b = key
                    out[t]["per_prime_us"][method][b] = value
                else:
                    out[t][key] = value
    finally:
        for pool in pools:
            pool.shutdown()
    return out


def crossover(src, reps, bins=CROSSOVER_BINS):
    """Per bin: (bsgs sum / exhaustive sum of per-prime medians, primes
    where bsgs was faster, primes), the methods alternating on each."""
    sys.path.insert(0, src)
    from heckelab import galois
    curves = _curves(galois) + [galois.parse_curve(t) for t in (
        "[0,0,0,-1,0]", "[1/2,0,-1/3,-3,1/4]")]
    for ell in (101, 103, 107):  # warm the interpreter and imports
        for method in METHODS:
            galois.count_points(curves[0], ell, method)
    rows = {}
    for lo, hi in bins:
        sums, faster, n = dict.fromkeys(METHODS, 0.0), 0, 0
        for c in curves:
            disc = c.discriminant()
            for ell in galois.primes_upto(hi - 1):
                if ell < lo or disc.numerator * disc.denominator % ell == 0:
                    continue
                times = {m: [] for m in METHODS}
                for r in range(reps):
                    for m in METHODS if r % 2 == 0 else METHODS[::-1]:
                        t0 = time.perf_counter()
                        galois.count_points(c, ell, m)
                        times[m].append(time.perf_counter() - t0)
                med = {m: statistics.median(times[m]) for m in METHODS}
                for m in METHODS:
                    sums[m] += med[m]
                faster += med["bsgs"] < med["exhaustive"]
                n += 1
        rows[f"{lo}-{hi}"] = (sums["bsgs"] / sums["exhaustive"], faster, n)
    return rows


def _commit(src):
    try:
        out = subprocess.run(["git", "-C", src, "describe", "--always",
                              "--dirty", "--abbrev=40"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None  # an exported tree has no history
    return out.stdout.strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", action="append",
                        help="a tree's src/ directory; repeat to compare")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_count.json"))
    parser.add_argument("--crossover", action="store_true",
                        help="bsgs against exhaustive per bin in one tree")
    args = parser.parse_args()
    srcs = [os.path.abspath(s) for s in args.src or [os.path.join(ROOT, "src")]]
    if args.crossover:
        for b, (ratio, faster, n) in crossover(srcs[0], args.rounds).items():
            print(f"[{b}) bsgs/exhaustive {ratio:.3f}, bsgs faster at "
                  f"{faster} of {n} primes")
        return
    runs = [[] for _ in srcs]  # by index, so a tree may be given twice
    for r in range(args.rounds):
        for rounds, result in zip(runs, measure_round(srcs, r)):
            rounds.append(result)
    trees = []
    for src, rounds in zip(srcs, runs):
        per_prime = {m: {b: statistics.median(x["per_prime_us"][m][b]
                                              for x in rounds)
                         for b in rounds[0]["per_prime_us"][m]}
                     for m in METHODS}
        trees.append({
            "commit": _commit(src),
            "per_prime_us": per_prime,
            "frobenius_sample_ms": statistics.median(
                x["frobenius_sample_ms"] for x in rounds),
            "frobenius_sample_ms_rounds": [x["frobenius_sample_ms"]
                                           for x in rounds],
            "frobenius_hit_ms": statistics.median(
                x["frobenius_hit_ms"] for x in rounds),
            "frobenius_hit_ms_rounds": [x["frobenius_hit_ms"]
                                        for x in rounds],
        })
    report = {"machine": {"nproc": os.cpu_count(),
                          "python": platform.python_version(),
                          "platform": platform.machine()},
              "rounds": args.rounds,
              "curves": runs[0][0]["curves"],
              "sample_bound": SAMPLE_BOUND,
              "trees": trees}  # in --src order
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for src, tree in zip(srcs, trees):
        print(src, tree["commit"])
        for m in METHODS:
            print(f"  {m:10s}", "  ".join(f"[{b}) {v:7.1f} us" for b, v in
                                          tree["per_prime_us"][m].items()))
        print(f"  frobenius_sample(c, {SAMPLE_BOUND}) "
              f"{tree['frobenius_sample_ms']:.1f} ms per curve, "
              f"{tree['frobenius_hit_ms']:.2f} ms from the cache")


if __name__ == "__main__":
    main()
