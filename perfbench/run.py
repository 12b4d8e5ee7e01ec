"""Benchmark of the heckelab CLI over three seeded workloads.

    python3 perfbench/run.py --workload frobenius-cold --seed 1 \
        --seconds 30 --trace 0

Runs `heckelab.cli.main(argv)` from this checkout's `src/` as a closed
loop: one client, one request in flight.  Cold workloads fork a fresh
child per request from a process that has only imported heckelab, which
is the state a new CLI process starts from; the warm workload serves the
whole run in one forked child, as a library caller would.  Whole rounds
of requests run until `--seconds` have been spent serving.

Answers are checked after the timed region (see checks.py); a few
requests are run again in fresh children and must print the same bytes.
`--trace 0` reports end-to-end metrics.  `--trace 1` runs requests
untraced for half of `--seconds`, replays the same requests traced, and
reports per-layer totals and the difference in serving time.
`--workload all` runs every workload in turn.  The last line of standard
output is one JSON object.
"""

import os

# before numpy is imported anywhere: one BLAS thread, no Phi_n file cache
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HECKE_LAB_CACHE", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_SPAWNS = 7
RERUNS = 3  # requests re-run per run to check stdout is deterministic


def refuse(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import heckelab from this checkout's src/ and nowhere else."""
    if not (SRC / "heckelab" / "cli.py").is_file():
        refuse(f"no heckelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import heckelab
    import heckelab.cli
    where = Path(heckelab.__file__).resolve()
    if SRC.resolve() not in where.parents:
        refuse(f"heckelab resolved to {where}, outside {SRC}")
    return heckelab


def measure_setup():
    """Median wall time of a fresh interpreter importing heckelab.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import heckelab.cli"],
                       env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine(heckelab):
    import mpmath
    import numpy
    digest = hashlib.sha256()
    for path in sorted((SRC / "heckelab").glob("*.py")):
        digest.update(path.read_bytes())
    commit = None  # an exported checkout has no history
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "mpmath_backend": mpmath.libmp.BACKEND,
            "numpy": numpy.__version__, "commit": commit,
            "src_sha256": digest.hexdigest()[:16],
            "heckelab_file": heckelab.__file__}


# -- executing requests -------------------------------------------------------

def call_cli(cli, argv):
    """(exit code, stdout, stderr) of one in-process CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = "crash"
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def in_child(fn):
    """Run fn() in a forked child; return (its JSON-able result, rusage).
    The child's state dies with it, so the parent stays as imported."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        status = 0
        try:
            data = json.dumps(fn()).encode()
            with os.fdopen(wfd, "wb") as fh:
                fh.write(data)
        except BaseException:
            traceback.print_exc()
            status = 1
        finally:
            os._exit(status)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0:
        raise RuntimeError(f"benchmark child failed with status {status}")
    return json.loads(data), usage


def traced_child():
    """Tracer installed in this (forked) process only."""
    from tracer import Tracer
    return Tracer().install()


def more_rounds(served, last_round, budget):
    """Whole rounds until `budget` seconds are served: stop when half the
    last round would overshoot, so runs centre on the budget."""
    return budget is None or served + last_round / 2 < budget


def run_cold(cli, batches, budget, traced=False):
    """Each request in a fresh child, round by round."""
    results, snaps, served, peak, last = [], [], 0.0, 0, 0.0
    for batch in batches:
        if not more_rounds(served, last, budget):
            break
        start = served
        for req in batch:
            def one():
                tracer = traced_child() if traced else None
                code, out, err = call_cli(cli, req["argv"])
                return [code, out, err, tracer.snapshot() if tracer
                        else None]

            t0 = time.perf_counter()
            (code, out, err, snap), usage = in_child(one)
            dt = time.perf_counter() - t0  # fork to reap: what a caller waits
            served += dt
            peak = max(peak, usage.ru_maxrss)
            results.append((req, code, out, err, dt))
            if snap:
                snaps.append(snap)
        last = served - start
    return results, served, peak, snaps


def run_warm(cli, batches, budget, traced=False):
    """All requests in one long-lived child, round by round."""
    def session():
        tracer = traced_child() if traced else None
        rows, served, n_batches, last = [], 0.0, 0, 0.0
        for batch in batches:
            if not more_rounds(served, last, budget):
                break
            n_batches += 1
            start = served
            for req in batch:
                t0 = time.perf_counter()
                code, out, err = call_cli(cli, req["argv"])
                dt = time.perf_counter() - t0
                served += dt
                rows.append([code, out, err, dt])
            last = served - start
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return [n_batches, rows, rss, tracer.snapshot() if tracer else None]

    (n_batches, rows, rss, snap), _ = in_child(session)
    # the parent's generator is where the child's was at the fork, so
    # drawing here yields the rounds the child drew
    while len(batches) < n_batches:
        batches.append(next(batches.source))
    reqs = [req for batch in batches[:n_batches] for req in batch]
    results = [(req, *row) for req, row in zip(reqs, rows)]
    return results, sum(r[4] for r in results), rss, [snap] if snap else []


class Batches(list):
    """Rounds from the generator, drawn on demand and remembered, so a
    forked child and its parent see the same requests."""

    def __init__(self, source):
        super().__init__()
        self.source = source

    def __iter__(self):
        i = 0
        while True:
            if i == len(self):
                self.append(next(self.source))
            yield self[i]
            i += 1


# -- metrics --------------------------------------------------------------------

def cpu_ticks():
    """(steal, total) jiffies of this machine, or None off Linux.  The
    steal share of a run shows how much the host took from it."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks)


def tail(latencies):
    """(percentile, value): the highest rank with ten samples above it."""
    xs = sorted(latencies)
    k = len(xs) - 11
    if k < 0:
        return None, max(xs)
    return round(100.0 * (k + 1) / len(xs), 1), xs[k]


def run_workload(name, seed, seconds, trace):
    import checks
    import workloads
    from tracer import layer_metrics, merge

    cli = sys.modules["heckelab.cli"]
    mode = workloads.WORKLOADS[name][0]
    runner = run_cold if mode == "cold" else run_warm
    source = Batches(workloads.rounds(name, seed))
    # a traced run spends half its time untraced and replays that traced
    budget = seconds / 2 if trace else seconds
    before = cpu_ticks()
    plain, served, peak_kb, _ = runner(cli, source, budget)
    after = cpu_ticks()
    steal = (round((after[0] - before[0]) / max(1, after[1] - before[1]), 4)
             if before and after else None)
    results, reasons = list(plain), []
    if trace:
        replay = [[r[0]] for r in plain]
        traced, traced_s, _, snaps = runner(cli, replay, None, traced=True)
        report = {"per_layer": layer_metrics(merge(snaps), traced_s - served)}
        results += traced
        for a, b in zip(plain, traced):
            if a[2] != b[2]:
                reasons.append(f"{' '.join(a[0]['argv'])}: traced stdout "
                               "differs")
    else:
        lat = [r[4] for r in plain]
        pct, tail_s = tail(lat)
        report = {"tail_percentile": pct, "end_to_end": {
            "throughput_rps": (len(lat) / served, "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "latency_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }}

    checker = checks.Checker(seed)
    for req, code, out, err, _ in results:
        try:
            checker.check(req, code, out)
        except Exception as exc:  # a malformed answer is a failed request
            reasons.append(f"{' '.join(req['argv'])}: {exc} {err[-300:]}")
    pick = random.Random(f"rerun:{seed}").sample(plain, min(RERUNS, len(plain)))
    for req, _, out, _, _ in pick:
        again = run_cold(cli, [[req]], None)[0]
        if again[0][2] != out:
            reasons.append(f"{' '.join(req['argv'])}: stdout differs on rerun")
    report.update(ops=len(plain), attempted=len(results) + len(pick),
                  failed=len(reasons), reasons=reasons[:5], served_s=served,
                  steal_share=steal)
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    heckelab = load_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    for name in names:
        if name not in workloads.WORKLOADS:
            refuse(f"unknown workload {name!r}; "
                   f"choose from {sorted(workloads.WORKLOADS)} or all")

    print(json.dumps({"machine": machine(heckelab)}))
    setup_s = None if args.trace else measure_setup()
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        rep = run_workload(name, args.seed, args.seconds, args.trace)
        table = rep.get("per_layer") or dict(
            rep["end_to_end"], setup_s=(setup_s, "s"))
        prefix = "" if len(names) == 1 else f"{name}."
        for key, (value, unit) in table.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
        attempted += rep["attempted"]
        failed += rep["failed"]
        print(json.dumps({
            "workload": name, "seed": args.seed, "trace": args.trace,
            "ops": rep["ops"], "failed_ops": rep["failed"],
            "served_s": round(rep["served_s"], 3),
            "cpu_steal_share": rep["steal_share"],
            "tail_percentile": rep.get("tail_percentile"),
            "failures": rep["reasons"]}))
        if not args.trace:
            for key, (value, unit) in table.items():
                print(f"  {name:15} {key:18} {value:12.4f} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
