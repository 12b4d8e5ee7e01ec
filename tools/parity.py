"""Compare the CLI's output byte for byte with another revision.

    python3 tools/parity.py REV

Extracts REV of this repository with `git archive` into a temporary
directory and runs one fixed, seeded list of argv (`argvs()`) through
`heckelab.cli.main` in each tree, this checkout's src/ and REV's, in one
fresh process per tree.  The list covers every subcommand, integral,
rational and 5-scaled curves, MOD2 at ramified, huge and complex X0,
`Phi_n` for n = 1 up to 7, and usage errors.  Prints how many argv ran and
every argv whose exit code, stdout or stderr differs, naming which of
the three, and exits 1 if any argv differs, 0 if none does.  Nothing is
written into the checkout, and the temporary directory is removed.
"""

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 20261020

# Run in each tree's process: the argv list on stdin, one [exit code,
# stdout, stderr] row per argv on stdout.  An exception that escapes
# cli.main is recorded by type and message, not by a traceback, whose
# paths name the tree.
WORKER = r"""
import contextlib, io, json, sys
from heckelab import cli
rows = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    rows.append([code, out.getvalue(), err.getvalue()])
json.dump(rows, sys.stdout)
"""


def _text(coeffs):
    return "[" + ",".join(str(a) for a in coeffs) + "]"


def _scaled(coeffs, u):
    """The model with a-invariants a_i u^i: the same curve over Q."""
    return [a * u ** i for a, i in zip(coeffs, (1, 2, 3, 4, 6))]


def _curves(rng):
    """Fixed curves, seeded integral ones with their 5-scaled models, and
    seeded rational ones, as text."""
    fixed = ["[0,-1,1,0,0]", "[0,0,1,-1,0]", "[0,0,0,-1,0]",
             "[0,0,125,-625,0]", "[1/2,0,-1/3,-3,1/4]", "[1/6,1/5,0,2,7/9]",
             "[0,0,0,1/16,3/64]", "[0,-1,0,-56,-20]"]
    integral = [[rng.randrange(-30, 31) for _ in range(5)] for _ in range(16)]
    dens = (1, 1, 2, 3, 4, 5, 6, 9)
    rational = [[f"{rng.randrange(-12, 13)}/{rng.choice(dens)}"
                 for _ in range(5)] for _ in range(12)]
    return (fixed + [_text(c) for c in integral]
            + [_text(_scaled(c, 5)) for c in integral]
            + [_text(c) for c in rational])


def argvs():
    """The fixed, seeded argv list."""
    rng = random.Random(SEED)
    curves = _curves(rng)
    out = []
    for c in curves:
        out += [["frobenius", c, "--upto", "600"],
                ["image", c, "--p", "5"],
                ["image", c, "--p", "13"],
                ["types", "--curve", c, "--level", "5"]]
    for c1, c2 in zip(curves, curves[1:]):
        out.append(["goursat", c1, c2, "--p", rng.choice(["5", "7"])])
    out += [
        ["types", "--curve", curves[0], "--curve", curves[1], "--level", "7"],
        ["types", "--gens", "[[[1,1],[0,1]],[[1,0],[1,1]]]", "--level", "6"],
        ["lifting", "--p", "5"],
        ["lifting", "--p", "7", "--gens", "[[[1,7],[0,1]],[[1,0],[7,1]]]"],
        ["special", "point", "--D", "-3", "--x", "1/2", "--y", "1/2"],
        ["special", "matrix", "--m", "[[0,-1],[1,0]]"],
        ["hecke-cosets", "2"], ["hecke-cosets", "3"],
        ["modpoly", "2"], ["modpoly", "3"],
        ["j", "0.1+1.1i"], ["j", "-0.3+0.5i", "--precision-bits", "256"],
        ["axiom", "mod1", "--n", "2", "--trials", "5", "--seed", "7"],
        ["axiom", "mod1", "--n", "3", "--trials", "3"],
        ["axiom", "mod2", "--n", "3", "--X0", "5+2i"],
        ["axiom", "mod2", "--n", "2", "--X0", "1728", "--precision-bits",
         "256"],
        ["axiom", "sp", "--D", "-1", "--x", "0", "--y", "1"],
        ["axiom", "sf", "--N", "6"],
    ]
    # MOD2 at the ramified values, where the fiber has multiple roots, at
    # huge X0 and off the real line
    for n in ("2", "3"):
        for x0 in ("0", "1728", "-3375", "8000", "1e60", "1e300",
                   "-3200.5+870.2i"):
            out.append(["axiom", "mod2", "--n", n, f"--X0={x0}"])
    # usage errors (exit 2) and refusals
    out += [
        [], ["frobenius"], ["frobenius", "[1,2,3]", "--upto", "50"],
        ["frobenius", "[0,0,0,0,0]", "--upto", "50"],
        ["frobenius", "[1/0,0,0,0,0]", "--upto", "50"],
        ["frobenius", "[a,0,0,0,0]", "--upto", "50"],
        ["frobenius", "[0,0,1,-1,0]", "--upto", "20000000"],
        ["image", "[0,0,1,-1,0]", "--p", "6"],
        ["image", "[0,0,1,-1,0]", "--p", "5", "--upto", "500"],
        ["goursat", "[0,0,1,-1,0]", "[0,0,0,0,0]", "--p", "5"],
        ["types", "--level", "5"],
        ["lifting", "--p", "4"],
        ["modpoly", "x"], ["modpoly", "0"], ["modpoly", "-1"],
        ["axiom", "mod1", "--n", "-1"],
        ["axiom", "mod2", "--n", "0", "--X0", "5"],
        ["j", "0.1-1i"],
        ["j", "0.1+1i", "--precision-bits", "32"],
        ["axiom", "mod1", "--n", "2", "--trials", "0"],
        ["axiom", "mod1", "--n", "2", "--trials", "2", "--tolerance", "-1"],
        ["axiom", "sp", "--D", "-4", "--x", "0", "--y", "1/2"],
        ["axiom", "sf", "--N", "1000"],
    ]
    # Phi_1, and Phi_n beyond n = 3: built up to psi(n) = 8, refused above
    out += [
        ["modpoly", "1"], ["modpoly", "5"], ["modpoly", "7"],
        ["modpoly", "6"], ["modpoly", "11"],
        ["axiom", "mod1", "--n", "5", "--trials", "3"],
        ["axiom", "mod1", "--n", "7", "--trials", "2"],
        ["axiom", "mod2", "--n", "5", "--X0", "5+2i"],
        ["axiom", "mod2", "--n", "7", "--X0", "1728"],
    ]
    # curve evidence at a level that is not a certifiable prime
    for level in ("0", "4"):
        out += [["types", "--curve", curves[0], "--level", level],
                ["types", "--curve", curves[0], "--curve", curves[1],
                 "--level", level]]
    # the verdicts no curve above reaches: the nonsplit Cartan normalizer
    # (y^2 = x^3 - x at p = 7, y^2 + y = x^3 at p = 5) and a Goursat graph
    out += [
        ["image", "[0,0,0,-1,0]", "--p", "7"],
        ["image", "[0,0,1,0,0]", "--p", "5"],
        ["goursat", "[0,-1,1,0,0]", "[0,-1,1,0,0]", "--p", "7"],
        ["types", "--curve", "[0,0,0,-1,0]", "--level", "7"],
        ["types", "--curve", "[0,-1,1,0,0]", "--curve", "[0,-1,1,0,0]",
         "--level", "7"],
    ]
    return out


def run_tree(src, argv_list):
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", WORKER], env=env,
                          input=json.dumps(argv_list), capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="the git revision to compare against")
    rev = ap.parse_args().rev
    argv_list = argvs()
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src"],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        theirs = run_tree(os.path.join(tmp, "src"), argv_list)
    ours = run_tree(os.path.join(ROOT, "src"), argv_list)
    differ = [i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b]
    print(f"{len(argv_list)} argv run against {rev}")
    if not differ:
        print("no difference")
        return 0
    print(f"{len(differ)} differ:")
    for i in differ:
        parts = [name for name, a, b in zip(("exit code", "stdout", "stderr"),
                                            ours[i], theirs[i]) if a != b]
        print(f"{json.dumps(argv_list[i])} ({', '.join(parts)})")
    return 1


if __name__ == "__main__":
    sys.exit(main())
