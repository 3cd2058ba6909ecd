"""Record the reference CSV hashes the benchmark checks against.

    python3 perfbench/record_reference.py

Runs one full pass of every workload at the default seed and writes
perfbench/reference.json with the SHA-256 of each CSV per invocation,
stamped with the Python, numpy and scipy versions it was made under.
Rerun it only when an output change is intended, and say why.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main():
    problem = run.prepare_imports()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import ambcsim.cli as cli

    work_dir = os.path.join(run.OUT, f"ref-{os.getpid()}")
    hashes = {}
    try:
        for workload in run.WORKLOADS:
            calls = run.invocations(workload, run.DEFAULT_SEED)
            pas = run.run_pass(cli, calls, work_dir)
            for rec in pas["invocations"]:
                if rec["error"] is not None:
                    print(f"{workload}/{rec['label']}: {rec['error']}",
                          file=sys.stderr)
                    return 1
            hashes[workload] = {r["label"]: r["hashes"]
                                for r in pas["invocations"]}
            print(f"{workload}: {pas['wall_s']:.2f} s", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    env = run.environment(run.DEFAULT_SEED)
    doc = {"environment": {k: env[k] for k in
                           ("python", "numpy", "scipy", "platform",
                            "machine", "nproc", "git_commit")},
           "seed": run.DEFAULT_SEED, "workloads": hashes}
    with open(run.REFERENCE, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
