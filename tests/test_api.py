"""The public API: ambcsim.__all__ and the package namespace agree,
importing the command line stays light, scipy's numerics enter
through specfun alone and load only where the exact series or a low
Bessel order needs them, and the two BD state gains have one home."""
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


def _run_probe(probe):
    """stdout of a fresh interpreter that imports ambcsim from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", probe], env=env,
                          check=True, capture_output=True, text=True).stdout


def _loaded(*roots):
    """Probe expression: the sorted modules loaded under these roots."""
    return f"sorted(m for m in sys.modules if m.split('.')[0] in {roots!r})"


def test_cli_import_loads_neither_fractions_nor_scipy_stats():
    # the large-order Bessel polynomials import fractions on first use,
    # and specfun imports scipy.special on first use; a module-level
    # import of either, or of any scipy module elsewhere, would slow
    # every process start
    out = _run_probe("import sys, ambcsim.cli; "
                     f"print({_loaded('fractions', 'scipy')})")
    assert out.strip() == "[]"


def test_only_the_exact_series_loads_scipy():
    # replicate, compare (BesselMap at order m_sc - 1 = 287) and the
    # gaussian coverage map run without scipy; theory's exact series
    # loads scipy.special on its first value
    runs = [["replicate", "--gamma-b", "5", "--symbols", "202"],
            ["compare", "--gamma", "5", "--realizations", "200",
             "--detectors", "Correlation,SquareRoot,Power,BesselMap"],
            ["coverage", "--engine", "gaussian", "--resolution", "5"],
            ["theory", "--gamma", "0"]]
    probe = ("import sys, tempfile, ambcsim.cli as c\n"
             f"for argv in {runs!r}:\n"
             "    with tempfile.TemporaryDirectory() as d:\n"
             "        assert c.main(argv + ['--threads', '1', '--out-dir', d]) == 0\n"
             f"    print(argv[0], bool({_loaded('scipy')}),\n"
             "          'scipy.special' in sys.modules)\n")
    out = _run_probe(probe).splitlines()
    assert out == ["replicate False False", "compare False False",
                   "coverage False False", "theory True True"]


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
