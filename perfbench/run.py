"""Benchmark of the ambcsim command line, four fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each workload is a pass of one or two CLI
invocations, run in-process through ``ambcsim.cli.main`` one at a time
(a closed loop with one caller) with ``--threads 1``. Passes repeat
while another one still fits in ``--seconds`` (at least two run; a
traced run makes at least one untraced and one traced pass). The last
stdout line is one JSON object: end-to-end metrics with ``--trace 0``,
per-layer metrics from spans (see spans.py) with ``--trace 1``. A full
result file with an environment stamp goes to perfbench/out/. See
README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import spans as sp

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 0
SETUP_SAMPLES = 3
# an untraced run reports a median of at least this many passes, even
# when they overrun --seconds (an exact-series pass takes 10-15 s)
MIN_PASSES = 2
# One caller and --threads 1 throughout, so BLAS gets one thread too:
# a second thread only adds noise on a small shared machine.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
LEVELS = "0.4,0.3,0.2,0.1,0.05,0.01"
DETECTORS4 = "Correlation,SquareRoot,Power,BesselMap"


def _exact_series(seed, tiny):
    # ber_theory used two ways: a gamma sweep at fixed gains, then many
    # distinct u = |1+iota|^2 at fixed gamma plus the exact range
    # bisection. Never touches lte_grid or modem.
    return [
        ("theory", ["theory", "--gamma", "0:7:14" if tiny else "0:0.5:14"]),
        ("coverage", ["coverage", "--engine", "exact", "--resolution",
                      "3" if tiny else "16", "--range-targets", "0.01"]),
    ]


def _mc_detect(seed, tiny):
    # BesselMap puts log_bessel_i at most of compare; --per-re puts
    # per-subcarrier energy_stream at most of simulate: a few large
    # energy_stream batches, the opposite of framed-replicate.
    return [
        ("compare", ["compare", "--gamma", "0,5,10", "--realizations",
                     "200" if tiny else "100000", "--detectors", DETECTORS4,
                     "--seed", str(seed)]),
        ("simulate", ["simulate", "--gamma", "0,5,10", "--symbols",
                      "200" if tiny else "5000", "--per-re", "--detectors",
                      "Correlation,BesselMap", "--seed", str(seed)]),
    ]


def _framed_replicate(seed, tiny):
    # frame_sync dominates, plus many small chi-square energy_stream
    # calls; no BesselMap and no exact series.
    return [
        ("replicate", ["replicate", "--gamma-b",
                       "5:0.25:5.5" if tiny else "5:0.25:8", "--symbols",
                       "202" if tiny else "9999", "--seed", str(seed)]),
    ]


def _coverage_map(seed, tiny):
    # The gaussian grid is cheap; contour_export and write_csv of the
    # 160k-row grid dominate, which exact-series would drown out.
    return [
        ("coverage", ["coverage", "--engine", "gaussian", "--resolution",
                      "20" if tiny else "400", "--levels", LEVELS,
                      "--range-targets", "0.1,0.01"]),
    ]


WORKLOADS = {
    "exact-series": _exact_series,
    "mc-detect": _mc_detect,
    "framed-replicate": _framed_replicate,
    "coverage-map": _coverage_map,
}


def invocations(workload, seed, tiny=False):
    """(label, argv) pairs of one pass; label is unique per workload."""
    return [(label, argv + ["--threads", "1"])
            for label, argv in WORKLOADS[workload](seed, tiny)]


def _csv_hashes(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as f:
                out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def run_invocation(cli, argv, out_dir):
    """One timed cli.main call. Never raises: an exception or nonzero
    status is returned as the error text."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    error = None
    t0 = time.perf_counter()
    try:
        status = cli.main(argv + ["--out-dir", out_dir])
    except SystemExit as exc:
        status = exc.code
    except Exception:
        status = None
        error = traceback.format_exc()
    seconds = time.perf_counter() - t0
    if error is None and status != 0:
        error = f"exit status {status}"
    hashes = _csv_hashes(out_dir) if error is None else {}
    return {"seconds": seconds, "error": error, "hashes": hashes}


def run_pass(cli, calls, work_dir):
    """Run one pass; returns its wall time and per-invocation records."""
    records = []
    t0 = time.perf_counter()
    for label, argv in calls:
        rec = run_invocation(cli, argv, os.path.join(work_dir, label))
        rec["label"] = label
        records.append(rec)
    return {"wall_s": time.perf_counter() - t0, "invocations": records}


def load_reference(env):
    """Reference CSV hashes, or None when they were recorded under other
    versions of Python, numpy or scipy (outputs depend on them)."""
    with open(REFERENCE, encoding="utf-8") as f:
        ref = json.load(f)
    keys = ("python", "numpy", "scipy")
    if any(ref["environment"][k] != env[k] for k in keys):
        return None
    return ref


class Checker:
    """Marks each invocation failed or not. Unseeded invocations, and
    every invocation at the reference seed, must match the reference
    hashes; seeded ones at other seeds must match this run's first
    pass."""

    def __init__(self, workload, seed, reference):
        self.expected = {}
        if reference is not None:
            seeded = {label for label, argv in invocations(workload, seed)
                      if "--seed" in argv}
            for label, hashes in reference["workloads"][workload].items():
                if seed == reference["seed"] or label not in seeded:
                    self.expected[label] = hashes
        self.attempted = 0
        self.failed = 0

    def check(self, pas):
        for rec in pas["invocations"]:
            self.attempted += 1
            if rec["error"] is None:
                want = self.expected.setdefault(rec["label"], rec["hashes"])
                if rec["hashes"] != want:
                    rec["error"] = "CSV bytes differ from the expected: " \
                        + json.dumps({"got": rec["hashes"], "want": want})
            if rec["error"] is not None:
                self.failed += 1
                print(f"invocation {rec['label']} failed: {rec['error']}",
                      file=sys.stderr)


def measure_setup(samples=SETUP_SAMPLES):
    """Wall times of fresh interpreters that import ambcsim.cli and
    build its parser, seen from the parent process."""
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    code = "import ambcsim.cli as c; c.build_parser()"
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def _git_commit():
    """HEAD of the checkout if it is a git repository, read from .git
    directly so nothing outside the checkout is consulted."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": _git_commit(),
    }


def subcommand_seconds(passes):
    """Median wall time of each invocation label over the passes."""
    labels = [r["label"] for r in passes[0]["invocations"]]
    return {f"{label}_s": statistics.median(
                r["seconds"] for p in passes for r in p["invocations"]
                if r["label"] == label)
            for label in labels}


def _another_fits(done, t0, seconds, at_least=1):
    """True while fewer than `at_least` rounds have run, or one more
    round of the mean length so far still ends within `seconds`."""
    if done < at_least:
        return True
    elapsed = time.perf_counter() - t0
    return elapsed * (done + 1) / done <= seconds


def run_untraced(cli, calls, work_dir, seconds, checker):
    passes = []
    t0 = time.perf_counter()
    while _another_fits(len(passes), t0, seconds, MIN_PASSES):
        pas = run_pass(cli, calls, work_dir)
        checker.check(pas)
        passes.append(pas)
    return passes


def run_traced(cli, workload, calls, work_dir, seconds, checker):
    """Alternate untraced and traced passes for `seconds`.
    Returns per-layer metrics (medians over traced passes), all passes
    and the spans of every traced pass."""
    plain, traced, per_pass, all_spans = [], [], [], []
    t0 = time.perf_counter()
    while _another_fits(len(traced), t0, seconds):
        pas = run_pass(cli, calls, work_dir)
        checker.check(pas)
        plain.append(pas)
        tracer = sp.Tracer()
        with tracer:
            pas = run_pass(cli, calls, work_dir)
        checker.check(pas)
        traced.append(pas)
        sp.fill_file_attrs(tracer.spans)
        sp.check_coverage(workload, tracer.spans)
        per_pass.append(sp.layer_metrics(tracer.spans))
        all_spans.append(tracer.spans)
    # counts stay whole numbers; times and ratios take the plain median
    metrics = {k: (statistics.median_low if sp.PER_LAYER[k] in
                   ("count", "bytes") else statistics.median)(
                       m[k] for m in per_pass)
               for k in per_pass[0]}
    wall_traced = statistics.median(p["wall_s"] for p in traced)
    wall_plain = statistics.median(p["wall_s"] for p in plain)
    metrics["trace.wall_s"] = wall_traced
    metrics["trace.overhead_s"] = wall_traced - wall_plain
    return metrics, plain + traced, all_spans


def layer_shares(metrics):
    """Self time of each layer as a share of the traced pass wall."""
    wall = metrics["trace.wall_s"]
    return {k: v / wall for k, v in metrics.items()
            if (k.endswith(".self_s") or k == "ber_theory.exact_ber.s")
            and v > 0}


def run(workload, seed, seconds, trace, tiny=False):
    """Measure one workload; returns (summary line dict, result doc).
    tiny=True runs the warm-up sizes, which have no reference hashes."""
    import ambcsim.cli as cli

    env = environment(seed)
    checker = Checker(workload, seed,
                      None if tiny else load_reference(env))
    work_dir = os.path.join(OUT, f"tmp-{os.getpid()}")
    result = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": env,
              "invocations": invocations(workload, seed, tiny)}
    try:
        if not trace:
            result["setup_samples_s"] = measure_setup()
        # first calls pay for lazy imports and caches; users do not pay
        # that on every run, so a tiny pass goes first, unmeasured
        run_pass(cli, invocations(workload, seed, tiny=True), work_dir)
        calls = invocations(workload, seed, tiny)
        if trace:
            metrics, passes, all_spans = run_traced(
                cli, workload, calls, work_dir, seconds, checker)
            result["layer_shares"] = layer_shares(metrics)
            sp.write_spans(os.path.join(
                OUT, f"spans-{workload}-seed{seed}.jsonl"),
                [dict(s, traced_pass=i)
                 for i, pass_spans in enumerate(all_spans)
                 for s in pass_spans])
            units = sp.PER_LAYER
        else:
            passes = run_untraced(cli, calls, work_dir, seconds, checker)
            metrics = {
                "wall_s": statistics.median(p["wall_s"] for p in passes),
                "setup_s": statistics.median(result["setup_samples_s"]),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result["passes"] = passes
    result["subcommand_s"] = subcommand_seconds(passes)
    result["failed_ratio"] = checker.failed / checker.attempted
    summary = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    result["summary"] = summary
    return summary, result


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def prepare_imports():
    """Import ambcsim from this checkout's src/ only, single-threaded
    BLAS. Returns an error message when the sources are not there."""
    if not os.path.isfile(os.path.join(SRC, "ambcsim", "cli.py")):
        return f"no ambcsim sources under {SRC}"
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, SRC)
    import ambcsim
    if os.path.dirname(os.path.abspath(ambcsim.__file__)) != \
            os.path.join(SRC, "ambcsim"):
        return f"ambcsim imported from {ambcsim.__file__}, not {SRC}"
    return None


def main(argv=None):
    args = parse_args(argv)
    problem = prepare_imports()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    summary, result = run(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
    for name, value in result["subcommand_s"].items():
        print(f"{name} = {value:.4f}")
    print(f"failed_ratio = {result['failed_ratio']:.4f}")
    print(f"result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
