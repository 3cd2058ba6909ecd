"""The public API: ambcsim.__all__ and the package namespace agree,
importing the command line stays light (what a run needs beyond it
is imported on first use), scipy's numerics enter through specfun
alone and load only where the exact series or a low Bessel order
needs them, each shared formula has one home, and the counts of
options, dataclass fields, public names and code lines change only on
purpose."""
import argparse
import ast
import io
import os
import subprocess
import sys
import tokenize
import types
from pathlib import Path

import pytest

import ambcsim
from ambcsim.cli import build_parser

_SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_name_in_all_resolves():
    assert [n for n in ambcsim.__all__ if not hasattr(ambcsim, n)] == []
    assert len(set(ambcsim.__all__)) == len(ambcsim.__all__)


def test_every_public_attribute_is_in_all():
    public = {n for n, v in vars(ambcsim).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert sorted(public - set(ambcsim.__all__)) == []


def test_every_name_in_all_is_used():
    # a public name that neither the package nor the acceptance checks
    # load is API that nothing uses: delete it rather than export it
    trees = [tree for stem, tree in _modules().items() if stem != "__init__"]
    trees.append(ast.parse((_SRC.parent / "tests" / "test_acceptance.py")
                           .read_text()))
    loaded = {n.id if isinstance(n, ast.Name) else n.attr
              for tree in trees for n in ast.walk(tree)
              if isinstance(n, (ast.Name, ast.Attribute))
              and isinstance(n.ctx, ast.Load)}
    assert [n for n in ambcsim.__all__ if n not in loaded] == []


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
    # imported on first use: statistics (and so fractions) by q_inv,
    # fractions by the large-order Bessel polynomials, scipy.special by
    # specfun, the process pools by --threads above 1; a module-level
    # import of any of them would slow every process start
    roots = ("statistics", "fractions", "scipy", "concurrent",
             "multiprocessing")
    out = _run_probe(f"import sys, ambcsim.cli; print({_loaded(*roots)})")
    assert out.strip() == "[]"


def _load_time_imports(path):
    """What a source file imports when it is loaded, outside any
    function body: module names, and module.name for each name taken
    from a module."""
    found = []
    todo = list(ast.parse(path.read_text(), str(path)).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found += [f"{node.module}.{a.name}" for a in node.names]
        todo.extend(ast.iter_child_nodes(node))
    return found


def test_rarely_used_modules_are_imported_on_first_use():
    # the installed-package metadata, and the process pools that only
    # --threads above 1 needs, are never imported at module level
    lazy = ("importlib.metadata", "concurrent.futures", "multiprocessing")
    found = {}
    for path in sorted((_SRC / "ambcsim").glob("*.py")):
        hits = [m for m in _load_time_imports(path)
                if any(m == r or m.startswith(r + ".") for r in lazy)]
        if hits:
            found[path.name] = hits
    assert found == {}


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
    # and cli reads the version of a loaded scipy from sys.modules
    allowed = {"specfun": {("from", "scipy.special")}}
    stray = {}
    for path in sorted((_SRC / "ambcsim").glob("*.py")):
        extra = set(_scipy_imports(path)) - allowed.get(path.stem, set())
        if extra:
            stray[path.name] = sorted(extra)
    assert stray == {}


def _calls_of(node, name):
    """Calls of name, plain or as an attribute, under an AST node."""
    return sum(1 for n in ast.walk(node)
               if isinstance(n, ast.Call) and name in (
                   getattr(n.func, "id", None),
                   getattr(n.func, "attr", None)))


def _modules():
    """module stem -> parsed source, for every module of the package."""
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted((_SRC / "ambcsim").glob("*.py"))}


# name: (the one module that defines it, {module: calls of it} over the
# package). Each formula is written once; every other module asks it.
_ONE_HOME = {
    # the BD's reflect and absorb gains, in channel._state_gains
    "composite_gain": ("channel", {"channel": 2}),
    # no Gaussian tail outside the BER formulas and q_inv's Newton step
    "q_func": ("specfun", {"ber_theory": 3, "specfun": 1}),
    # the Gaussian BER of u = |1+iota|^2: ber_vs_iota, the map and the
    # ber_gaussian column of theory --iota
    "_gaussian_ber_u": ("ber_theory", {"ber_theory": 1, "cli": 1,
                                       "coverage": 1}),
    # 2 gamma_b, the Gaussian link budget: half of it is the per-bit SNR
    # of snr_per_bit and DetectionParams.gamma_b, Q of its root the
    # Gaussian BER of u
    "_two_gamma_b": ("channel", {"ber_theory": 1, "channel": 1}),
    "_gamma_b": ("channel", {"ber_theory": 1, "channel": 1}),
    # the energy statistic's mean and variance: the Power rule, the
    # Gaussian y-model and the replicate sync threshold
    "_energy_moments": ("lte_grid", {"modem": 1, "montecarlo": 2}),
    # the noise power of a per-bit SNR, beside snr_per_bit
    "_noise_for_gamma_b": ("channel", {"montecarlo": 1}),
}


@pytest.mark.parametrize("name", sorted(_ONE_HOME))
def test_each_idea_has_one_home(name):
    home, expected = _ONE_HOME[name]
    modules = _modules()
    defined = [m for m, tree in modules.items()
               if any(isinstance(n, ast.FunctionDef) and n.name == name
                      for n in ast.walk(tree))]
    calls = {m: k for m, tree in modules.items()
             if (k := _calls_of(tree, name))}
    assert (defined, calls) == ([home], expected)


def test_theory_rows_have_no_fsk_branch():
    # FSK's Gaussian row is gaussian_ber of the antipodal problem at
    # N / 2, the params_for_scheme transform the exact row already takes
    body = next(n for n in ast.walk(_modules()["montecarlo"])
                if isinstance(n, ast.FunctionDef) and n.name == "_theory_bers")
    assert _calls_of(body, "fsk_coherent_ber") == 0
    assert _calls_of(body, "params_for_scheme") == 1


def test_no_module_reads_argparse_internals():
    # config lines reach argparse as flags, so no module reads a
    # parser's _actions or a private argparse name such as _HelpAction
    found = []
    for stem, tree in _modules().items():
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n.module == "argparse":
                names = [a.name for a in n.names]
            elif isinstance(n, ast.Attribute) and (
                    n.attr == "_actions"
                    or getattr(n.value, "id", None) == "argparse"):
                names = [n.attr]
            else:
                continue
            found += [f"{stem}:{n.lineno}:{name}" for name in names
                      if name.startswith("_")]
    assert found == []


# Knobs a user or caller can turn, counted so that growth is a decision:
# CLI options over every subcommand (help not counted), dataclass fields
# in the package, and the names of ambcsim.__all__.
_KNOBS = {"cli options": 61, "dataclass fields": 61, "public names": 52}


def _dataclass_fields():
    return sum(isinstance(s, ast.AnnAssign)
               for tree in _modules().values() for n in ast.walk(tree)
               if isinstance(n, ast.ClassDef) and any(
                   "dataclass" in (getattr(d, "id", None),
                                   getattr(getattr(d, "func", None), "id",
                                           None))
                   for d in n.decorator_list)
               for s in n.body)


def test_knob_counts_are_pinned():
    _, subcommands = build_parser()
    options = sum(not isinstance(a, argparse._HelpAction)
                  for sub in subcommands.values() for a in sub._actions)
    got = {"cli options": options, "dataclass fields": _dataclass_fields(),
           "public names": len(ambcsim.__all__)}
    assert got == _KNOBS, (
        "a knob count changed: if the change is meant, update _KNOBS in "
        "tests/test_api.py to the new number and give the reason in "
        "CHANGES.md")


# Lines of code in src/: non-blank lines outside comments and
# docstrings, as tokenize sees them.
_CODE_LINES = 1524

_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def _code_lines(text):
    """Numbers of the lines that hold a token of code: a string that is
    a statement of its own (a docstring) does not count, and a token
    that spans lines counts on each of them."""
    toks = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
            if t.type not in (tokenize.NL, tokenize.COMMENT)]
    lines = set()
    for prev, tok, nxt in zip([None] + toks, toks, toks[1:] + [None]):
        if tok.type in _LAYOUT or (
                tok.type == tokenize.STRING
                and (prev is None or prev.type in _LAYOUT)
                and nxt.type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def test_code_lines_are_pinned():
    got = sum(len(_code_lines(path.read_text()))
              for path in sorted((_SRC / "ambcsim").glob("*.py")))
    assert got == _CODE_LINES, (
        "the code-line count of src/ changed: if the change is meant, "
        "update _CODE_LINES in tests/test_api.py to the new number and "
        "give the reason in CHANGES.md")
