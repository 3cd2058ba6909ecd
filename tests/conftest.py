"""Shared pytest configuration: make the suite importable without install,
and run hypothesis properties on a fixed example sequence."""
import sys
from pathlib import Path

from hypothesis import settings

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

_TESTS = Path(__file__).resolve().parent
if str(_TESTS) not in sys.path:
    sys.path.insert(0, str(_TESTS))

# derandomize: every run tries the same examples, so the suite is
# reproducible; no deadline: per-example time varies on a loaded host
settings.register_profile("ambcsim", derandomize=True, deadline=None)
settings.load_profile("ambcsim")
