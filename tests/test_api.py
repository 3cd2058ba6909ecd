"""The public API: ambcsim.__all__ and the package namespace agree,
importing the command line stays light, scipy's numerics enter
through specfun alone, and the two BD state gains have one home."""
import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import ambcsim

_SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_name_in_all_resolves():
    assert [n for n in ambcsim.__all__ if not hasattr(ambcsim, n)] == []
    assert len(set(ambcsim.__all__)) == len(ambcsim.__all__)


def test_every_public_attribute_is_in_all():
    public = {n for n, v in vars(ambcsim).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert sorted(public - set(ambcsim.__all__)) == []


def test_cli_import_loads_neither_fractions_nor_scipy_stats():
    # the large-order Bessel polynomials import fractions on first use;
    # a module-level import there, or of scipy.stats anywhere, would
    # slow every process start
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_SRC), env.get("PYTHONPATH")) if p)
    probe = ("import sys, ambcsim.cli; "
             "print(sorted({'fractions', 'scipy.stats'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _scipy_imports(path):
    """(statement, module) for each scipy import in a source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [("import", a.name) for a in node.names
                      if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "scipy":
            found.append(("from", node.module))
    return found


def test_scipy_numerics_enter_through_specfun_only():
    # specfun may import from scipy.special; nothing else touches scipy,
    # and cli reads its version from the package metadata
    allowed = {"specfun": {("from", "scipy.special")}}
    stray = {}
    for path in sorted((_SRC / "ambcsim").glob("*.py")):
        extra = set(_scipy_imports(path)) - allowed.get(path.stem, set())
        if extra:
            stray[path.name] = sorted(extra)
    assert stray == {}


def _calls_of(path, name):
    """Calls of name, plain or as an attribute, in a source file."""
    return sum(1 for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Call) and name in (
                   getattr(node.func, "id", None),
                   getattr(node.func, "attr", None)))


def test_state_gains_have_one_home():
    # composite_gain(ch, +1) and composite_gain(ch, -1) are written once,
    # in channel._state_gains; every other module asks it for the pair
    calls = {}
    for path in sorted((_SRC / "ambcsim").glob("*.py")):
        n = _calls_of(path, "composite_gain")
        if n:
            calls[path.stem] = n
    assert calls == {"channel": 2}
