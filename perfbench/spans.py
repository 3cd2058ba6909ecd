"""Outside-in spans around the layers of ambcsim.

Each wrap point replaces a function under the module attribute its
caller looks up at call time (callers bind with ``from .x import f``,
so the wrapper goes on the importing module, not on the defining one).
Spans are kept in memory; ``layer_metrics`` folds one pass of them into
the per-layer metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

DETECTORS = ("Correlation", "SquareRoot", "Power", "BesselMap")


def _name(fixed):
    return lambda args, kwargs: fixed


def _energy_stream_name(args, kwargs):
    per_re = kwargs.get("per_re", args[4] if len(args) > 4 else False)
    return "lte_grid.energy_stream." + ("per_re" if per_re else "chi2")


def _demod_name(args, kwargs):
    return "modem.demodulate_stream." + (args[0] if args else kwargs["kind"])


def _no_attrs(args, kwargs, result):
    return {}


def _size_attrs(key):
    return lambda args, kwargs, result: {key: int(result.size)}


def _bessel_attrs(args, kwargs, result):
    return {"elements": int(getattr(result, "size", 1))}


def _frame_sync_attrs(args, kwargs, result):
    return {"chips": len(args[0]), "locked": result is not None}


def _grid_attrs(args, kwargs, result):
    return {"cells": int(result.ber.size), "error_cells": len(result.errors)}


def _contour_attrs(args, kwargs, result):
    return {"vertices": sum(len(line.points) for line in result)}


def _replicate_attrs(args, kwargs, result):
    packets = result[1]
    return {"packets": len(packets),
            "sync_ok": sum(1 for p in packets if p.sync_ok)}


def _write_csv_attrs(args, kwargs, result):
    # rows and bytes are read back from the file after the pass, so the
    # read does not land inside any span
    return {"path": args[0]}


# (module, attribute, span name from the call, attributes from the result)
WRAP_POINTS = (
    ("ambcsim.modem", "log_bessel_i",
     _name("specfun.log_bessel_i"), _bessel_attrs),
    ("ambcsim.montecarlo", "energy_stream",
     _energy_stream_name, _size_attrs("chips")),
    ("ambcsim.montecarlo", "demodulate_stream",
     _demod_name, _size_attrs("symbols")),
    ("ambcsim.montecarlo", "frame_sync",
     _name("modem.frame_sync"), _frame_sync_attrs),
    ("ambcsim.montecarlo", "exact_ber",
     _name("ber_theory.exact_ber"), _no_attrs),
    ("ambcsim.coverage", "exact_ber",
     _name("ber_theory.exact_ber"), _no_attrs),
    ("ambcsim.cli", "exact_ber",
     _name("ber_theory.exact_ber"), _no_attrs),
    ("ambcsim.cli", "compute_ber_grid",
     _name("coverage.compute_ber_grid"), _grid_attrs),
    ("ambcsim.cli", "contour_export",
     _name("coverage.contour_export"), _contour_attrs),
    ("ambcsim.cli", "range_estimate",
     _name("coverage.range_estimate"), _no_attrs),
    ("ambcsim.cli", "compare_receivers",
     _name("montecarlo.compare_receivers"), _no_attrs),
    ("ambcsim.cli", "run_ber_sweep",
     _name("montecarlo.run_ber_sweep"), _no_attrs),
    ("ambcsim.cli", "replicate_measurement",
     _name("montecarlo.replicate_measurement"), _replicate_attrs),
    ("ambcsim.cli", "write_csv",
     _name("cli.write_csv"), _write_csv_attrs),
    ("ambcsim.cli", "main", _name("cli.main"), _no_attrs),
)

ALL_WORKLOADS = ("exact-series", "mc-detect", "framed-replicate",
                 "coverage-map")

# Wrap point -> workloads on which it must fire. A refactor that moves
# a call away from one of these names makes the traced run fail rather
# than report zero time for the layer.
SITE_EXPECTED = {
    "ambcsim.modem.log_bessel_i": ("mc-detect",),
    "ambcsim.montecarlo.energy_stream": ("mc-detect", "framed-replicate"),
    "ambcsim.montecarlo.demodulate_stream": ("mc-detect", "framed-replicate"),
    "ambcsim.montecarlo.frame_sync": ("framed-replicate",),
    "ambcsim.montecarlo.exact_ber": ("exact-series",),
    "ambcsim.coverage.exact_ber": ("exact-series",),
    # reached only by `theory --iota`, which no workload runs
    "ambcsim.cli.exact_ber": (),
    "ambcsim.cli.compute_ber_grid": ("exact-series", "coverage-map"),
    "ambcsim.cli.contour_export": ("exact-series", "coverage-map"),
    "ambcsim.cli.range_estimate": ("exact-series", "coverage-map"),
    "ambcsim.cli.compare_receivers": ("mc-detect",),
    "ambcsim.cli.run_ber_sweep": ("mc-detect",),
    "ambcsim.cli.replicate_measurement": ("framed-replicate",),
    "ambcsim.cli.write_csv": ALL_WORKLOADS,
    "ambcsim.cli.main": ALL_WORKLOADS,
}

# Span names one wrap point splits into, each required on a workload.
NAME_EXPECTED = {
    "lte_grid.energy_stream.per_re": ("mc-detect",),
    "lte_grid.energy_stream.chi2": ("mc-detect", "framed-replicate"),
    **{"modem.demodulate_stream." + k: ("mc-detect",) for k in DETECTORS},
}

# Per-layer metric name -> unit, in the order they are reported.
PER_LAYER = {
    "ber_theory.exact_ber.calls": "count",
    "ber_theory.exact_ber.s": "s",
    "ber_theory.exact_ber.failed": "count",
    "specfun.log_bessel_i.calls": "count",
    "specfun.log_bessel_i.elements": "count",
    "specfun.log_bessel_i.self_s": "s",
    "lte_grid.energy_stream.per_re.calls": "count",
    "lte_grid.energy_stream.per_re.chips": "count",
    "lte_grid.energy_stream.per_re.self_s": "s",
    "lte_grid.energy_stream.chi2.calls": "count",
    "lte_grid.energy_stream.chi2.chips": "count",
    "lte_grid.energy_stream.chi2.self_s": "s",
    **{f"modem.demodulate_stream.{k}.{m}": u
       for k in DETECTORS for m, u in (("symbols", "count"),
                                       ("self_s", "s"))},
    "modem.frame_sync.calls": "count",
    "modem.frame_sync.chips": "count",
    "modem.frame_sync.self_s": "s",
    "modem.frame_sync.lock_ratio": "ratio",
    "coverage.compute_ber_grid.cells": "count",
    "coverage.compute_ber_grid.self_s": "s",
    "coverage.compute_ber_grid.error_cells": "count",
    "coverage.range_estimate.calls": "count",
    "coverage.range_estimate.self_s": "s",
    "coverage.contour_export.vertices": "count",
    "coverage.contour_export.self_s": "s",
    "montecarlo.compare_receivers.self_s": "s",
    "montecarlo.run_ber_sweep.self_s": "s",
    "montecarlo.replicate_measurement.self_s": "s",
    "montecarlo.replicate_measurement.sync_ok_ratio": "ratio",
    "cli.write_csv.rows": "count",
    "cli.write_csv.bytes": "bytes",
    "cli.write_csv.self_s": "s",
    "cli.main.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class SpanCoverageError(RuntimeError):
    """A declared wrap point is missing or never fired where expected."""


class Tracer:
    """Records one span per wrapped call: name, wrap site, start, end,
    parent span index and invocation id. Use as a context manager; the
    wrappers are installed on enter and the originals restored on exit,
    so untraced passes run unmodified code."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._invocation = -1
        self._saved = []

    def __enter__(self):
        targets = []
        for mod_name, attr, namer, attrs in WRAP_POINTS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                raise SpanCoverageError(
                    f"wrap point {mod_name}.{attr} no longer exists")
            targets.append((mod, attr, fn, namer, attrs))
        for mod, attr, fn, namer, attrs in targets:
            site = f"{mod.__name__}.{attr}"
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(site, fn, namer, attrs))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, site, fn, namer, attrs_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                self._invocation += 1
            span = {"name": namer(args, kwargs), "site": site,
                    "parent": self._stack[-1] if self._stack else None,
                    "invocation": self._invocation, "failed": True}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span["failed"] = False
            span.update(attrs_of(args, kwargs, result))
            return result
        return wrapper


def fill_file_attrs(spans):
    """Rows and bytes of each written CSV, read after the pass."""
    for s in spans:
        if s["name"] == "cli.write_csv" and not s["failed"]:
            with open(s["path"], "rb") as f:
                data = f.read()
            s["bytes"] = len(data)
            s["rows"] = data.count(b"\n") - 1


def self_times(spans):
    """Span duration minus the time its direct children cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans):
    """Per-layer metrics of one traced pass (everything in PER_LAYER
    except the trace.* entries, which the caller fills in)."""
    m = {k: 0 for k in PER_LAYER if not k.startswith("trace.")}
    selfs = self_times(spans)
    locked = packets = sync_ok = 0
    for s, self_s in zip(spans, selfs):
        name = s["name"]
        if name == "ber_theory.exact_ber":
            m[name + ".calls"] += 1
            m[name + ".s"] += s["end"] - s["start"]
            m[name + ".failed"] += s["failed"]
            continue
        if name + ".self_s" in m:
            m[name + ".self_s"] += self_s
        if name + ".calls" in m:
            m[name + ".calls"] += 1
        if s["failed"]:
            continue
        for key in ("elements", "chips", "symbols", "cells", "error_cells",
                    "vertices", "rows", "bytes"):
            if name + "." + key in m:
                m[name + "." + key] += s[key]
        if name == "modem.frame_sync":
            locked += s["locked"]
        elif name == "montecarlo.replicate_measurement":
            packets += s["packets"]
            sync_ok += s["sync_ok"]
    calls = m["modem.frame_sync.calls"]
    m["modem.frame_sync.lock_ratio"] = locked / calls if calls else 0.0
    m["montecarlo.replicate_measurement.sync_ok_ratio"] = (
        sync_ok / packets if packets else 0.0)
    return m


def check_coverage(workload, spans):
    """Raise SpanCoverageError when a wrap point or split span that the
    workload should exercise never fired."""
    sites = {s["site"] for s in spans}
    names = {s["name"] for s in spans}
    missing = [site for site, wls in SITE_EXPECTED.items()
               if workload in wls and site not in sites]
    missing += [name for name, wls in NAME_EXPECTED.items()
                if workload in wls and name not in names]
    if missing:
        raise SpanCoverageError(
            f"workload {workload}: spans never fired: {', '.join(missing)}")


def write_spans(path, spans):
    """Dump the recorded spans as JSON lines."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        for i, s in enumerate(spans):
            f.write(json.dumps({"id": i, **s}) + "\n")
