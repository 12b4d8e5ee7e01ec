"""The perfbench tracer still finds every name it hooks in heckelab.

`perfbench/tracer.py` wraps heckelab from outside, by name: the public
functions of each layer, `Subgroup.generated`, the `RatMatrix` methods
and three lru_caches.  A refactor that drops one of those names breaks
`perfbench/run.py --trace 1`; this test serves three requests (an axiom,
a type count and a mod-7 image certificate) under the tracer in a fresh
process so that such a break shows up here.  As in
`perfbench/run.py`, `heckelab.cli` is imported before the tracer is
installed.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from heckelab import cli
from tracer import Tracer, layer_metrics
tracer = Tracer().install()
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(["axiom", "mod2", "--n", "2", "--X0=500+20i"]))
    codes.append(cli.main(["types", "--gens",
                           "[[[1,1],[0,1]],[[1,0],[1,1]]]", "--level", "12"]))
    codes.append(cli.main(["image", "[0,-1,1,0,0]", "--p", "7"]))
snap = tracer.snapshot()
layer_metrics(snap, 0.0)
print(json.dumps({"codes": codes, "funcs": sorted(snap["funcs"]),
                  "layers": sorted(snap["layers"])}))
"""


def test_tracer_hooks_a_mod2_and_a_types_request():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "perfbench"),
         os.path.join(ROOT, "src")],
        capture_output=True, text=True, check=True).stdout
    got = json.loads(out)
    assert got["codes"] == [0, 0, 0]
    assert "jfunction.invert_j" in got["funcs"]
    assert "galois.certify_mod_p_image" in got["funcs"]
    assert "congruence" in got["layers"]
