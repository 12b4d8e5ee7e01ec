"""Wall time of one CLI call in a fresh interpreter, per argv and tree.

    python3 tools/bench_startup.py [--src DIR]... [--rounds N] [--out PATH]

Every heckelab call from a shell is a new interpreter, so its cost is the
import of the package plus the command.  For each source tree (default:
this checkout's src/) this times `python -m heckelab.cli ARGV` with
PYTHONPATH set to the tree, one spawn per (round, tree, argv), for ARGVS:
one small argv per subcommand, two that build `Phi_7` cold (`modpoly 7`
and MOD2 at n = 7) and a bare `import heckelab.cli`.  For each argv the
trees alternate which goes first, from argv to argv and from round to
round, so the trees are timed under the same host conditions.
The first --src is the baseline: the printed change is the last tree's
median against the first's.  Before timing, one probe per (tree,
argv) runs `cli.main(ARGV)` in a fresh process and records whether it
loaded mpmath, dataclasses and inspect (and checks that heckelab
resolved into the tree).

Each figure written is the median over rounds, with the quartiles and
every round's time.  Every run of an argv must print the same stdout and
exit with the same code in every tree and round; the JSON records whether
it did, and the script exits 1 if any argv differs.  The JSON (default
BENCH_startup.json at the root of the checkout) records nproc, the Python
version and each tree's git commit, the trees in --src order.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IMPORT_ONLY = "import heckelab.cli"
ARGVS = (
    IMPORT_ONLY,
    ["frobenius", "[0,0,1,-1,0]", "--upto", "1000"],
    ["image", "[0,0,1,-1,0]", "--p", "5"],
    ["goursat", "[0,-1,1,0,0]", "[0,0,1,-1,0]", "--p", "7"],
    ["types", "--curve", "[0,0,1,-1,0]", "--level", "5"],
    ["types", "--gens", "[[[1,1],[0,1]],[[1,0],[1,1]]]", "--level", "6"],
    ["lifting", "--p", "7"],
    ["modpoly", "3"],
    ["modpoly", "7"],
    ["hecke-cosets", "6"],
    ["special", "point", "--D", "-3", "--x", "1/2", "--y", "1/2"],
    ["special", "matrix", "--m", "[[2,1],[1,1]]"],
    ["axiom", "sf", "--N", "10"],
    ["j", "0.1+1.1i"],
    ["axiom", "mod1", "--n", "2", "--trials", "4"],
    ["axiom", "mod2", "--n", "2", "--X0", "5"],
    ["axiom", "mod2", "--n", "7", "--X0", "5000"],
    ["axiom", "sp", "--D", "-1", "--x", "0", "--y", "1"],
)

# Run once per (tree, argv), untimed: where heckelab resolved and which
# of LOADED the call loaded.
LOADED = ("mpmath", "dataclasses", "inspect")
PROBE = r"""
import contextlib, io, json, sys
from heckelab import cli
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(sys.argv[1:])
        except SystemExit:
            pass
print(json.dumps([cli.__file__, [m in sys.modules for m in %r]]))
""" % (LOADED,)


def _name(argv):
    return argv if argv == IMPORT_ONLY else " ".join(argv)


def _command(argv):
    if argv == IMPORT_ONLY:
        return [sys.executable, "-c", IMPORT_ONLY]
    return [sys.executable, "-m", "heckelab.cli", *argv]


def _env(src):
    return dict(os.environ, PYTHONPATH=src)


def _probe(src, argv):
    """{module: loaded?} over LOADED, for `argv` in a fresh process on the
    tree `src`."""
    args = [] if argv == IMPORT_ONLY else argv
    out = subprocess.run([sys.executable, "-c", PROBE, *args], env=_env(src),
                         capture_output=True, text=True, check=True).stdout
    path, loaded = json.loads(out)
    if not path.startswith(src + os.sep):
        raise RuntimeError(f"heckelab resolved to {path}, not under {src}")
    return dict(zip(LOADED, loaded))


def _spawn(src, argv):
    """(wall seconds, exit code, stdout) of one fresh call on `src`."""
    t0 = time.perf_counter()
    done = subprocess.run(_command(argv), env=_env(src), capture_output=True,
                          text=True)
    return time.perf_counter() - t0, done.returncode, done.stdout


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
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--out",
                        default=os.path.join(ROOT, "BENCH_startup.json"))
    args = parser.parse_args()
    srcs = [os.path.abspath(s) for s in args.src or [os.path.join(ROOT, "src")]]
    trees = range(len(srcs))  # by index, so a tree may be given twice
    loaded = {(t, k): _probe(srcs[t], argv)
              for t in trees for k, argv in enumerate(ARGVS)}
    times = {(t, k): [] for t in trees for k in range(len(ARGVS))}
    codes = {k: set() for k in range(len(ARGVS))}
    outputs = {k: set() for k in range(len(ARGVS))}
    for r in range(args.rounds):
        for k, argv in enumerate(ARGVS):
            for t in trees if (r + k) % 2 == 0 else trees[::-1]:
                dt, code, out = _spawn(srcs[t], argv)
                times[t, k].append(dt * 1e3)
                codes[k].add(code)
                outputs[k].add(out)
    rows = []
    for k, argv in enumerate(ARGVS):
        per_tree = []
        for t in trees:
            ms = times[t, k]
            q1, _, q3 = statistics.quantiles(ms, n=4)
            per_tree.append({"median_ms": statistics.median(ms),
                             "q1_ms": q1, "q3_ms": q3, "ms_rounds": ms,
                             **{f"{m}_loaded": v
                                for m, v in loaded[t, k].items()}})
        rows.append({"argv": _name(argv),
                     "exit_codes": sorted(codes[k]),
                     "stdout_identical": len(outputs[k]) == 1,
                     "trees": per_tree})  # in --src order
    report = {"machine": {"nproc": os.cpu_count(),
                          "python": platform.python_version(),
                          "platform": platform.machine()},
              "rounds": args.rounds,
              "trees": [{"commit": _commit(src)} for src in srcs],
              "argvs": rows}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    # the commits recorded above: asked again, git would call the tree
    # dirty whenever --out lies inside it
    for src, tree in zip(srcs, report["trees"]):
        print(src, tree["commit"])
    for row in rows:
        meds = [t["median_ms"] for t in row["trees"]]
        change = (f"  {meds[-1] / meds[0] - 1:+.1%}" if len(meds) > 1
                  else "")
        # per tree, the initial of each module in LOADED it loaded
        flags = " ".join("".join(m[0].upper() if t[f"{m}_loaded"] else "-"
                                 for m in LOADED) for t in row["trees"])
        same = ("" if row["stdout_identical"] and len(row["exit_codes"]) == 1
                else "  OUTPUT DIFFERS")
        print(f"{row['argv'][:60]:60s}", "  ".join(f"{m:7.1f}" for m in meds),
              f"ms{change}  loaded {flags}{same}")
    sys.exit(0 if all(row["stdout_identical"] and len(row["exit_codes"]) == 1
                      for row in rows) else 1)


if __name__ == "__main__":
    main()
