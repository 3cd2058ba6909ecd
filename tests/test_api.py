"""The public API: ambcsim.__all__ and the package namespace agree, and
importing the command line stays light."""
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
