"""Every module-level import in heckelab is used in its own module.

A deletion that leaves an import behind fails here.  `__init__.py` is
exempt, since it imports only to re-export; so is `from __future__`.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src",
                   "heckelab")
MODULES = sorted(f for f in os.listdir(SRC)
                 if f.endswith(".py") and f != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import json\nimport re as _re\n"
                           "from math import gcd, lcm\n"
                           "x = _re.compile(''), gcd\n") == ["json", "lcm"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_its_imports(module):
    with open(os.path.join(SRC, module)) as f:
        assert _unused_imports(f.read()) == [], module
