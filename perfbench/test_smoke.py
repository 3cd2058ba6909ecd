"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload reports exactly the metrics BENCHMARK.json
declares, that the span-coverage check passes on each workload and
fails loudly when a wrap point is gone or silent, and that a failing
invocation is counted without aborting the run.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

assert run.prepare_imports() is None
import spans  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    BENCH = json.load(f)


def _names(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


def test_declared_workloads_exist():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert spans.ALL_WORKLOADS == tuple(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_tiny_run_reports_every_layer_metric(workload):
    summary, result = run.run(workload, 5, 0.0, trace=True, tiny=True)
    assert summary["correct"] and summary["attempted"] == 2 * len(
        run.invocations(workload, 5))
    got = {k: v["unit"] for k, v in summary["metrics"].items()}
    assert got == _names("per_layer")
    assert result["environment"]["seed"] == 5


def test_untraced_tiny_run_reports_every_end_to_end_metric():
    summary, result = run.run("coverage-map", 1, 0.0, trace=False,
                              tiny=True)
    assert summary["correct"] and summary["failed"] == 0
    got = {k: v["unit"] for k, v in summary["metrics"].items()}
    assert got == _names("end_to_end")
    assert all(v["value"] > 0 for v in summary["metrics"].values())
    assert set(result["subcommand_s"]) == {"coverage_s"}
    for key in ("python", "numpy", "scipy", "platform", "nproc", "seed",
                "git_commit"):
        assert key in result["environment"]


def test_missing_wrap_point_fails_loudly(monkeypatch):
    import ambcsim.montecarlo
    monkeypatch.delattr(ambcsim.montecarlo, "frame_sync")
    with pytest.raises(spans.SpanCoverageError, match="frame_sync"):
        with spans.Tracer():
            pass


def test_silent_wrap_point_fails_loudly(tmp_path):
    import ambcsim.cli as cli
    tracer = spans.Tracer()
    with tracer:
        run.run_pass(cli, run.invocations("coverage-map", 0, tiny=True),
                     str(tmp_path))
    spans.check_coverage("coverage-map", tracer.spans)
    with pytest.raises(spans.SpanCoverageError, match="frame_sync"):
        spans.check_coverage("framed-replicate", tracer.spans)


class _FailingCli:
    def __init__(self, outcome):
        self.outcome = outcome

    def main(self, argv):
        if isinstance(self.outcome, BaseException):
            raise self.outcome
        return self.outcome


@pytest.mark.parametrize("outcome", [1, ValueError("ppf gave NaN"),
                                     SystemExit(2)])
def test_failed_invocation_is_counted_not_raised(outcome, tmp_path):
    checker = run.Checker("coverage-map", 0, None)
    pas = run.run_pass(_FailingCli(outcome), [("coverage", [])],
                       str(tmp_path))
    checker.check(pas)
    assert (checker.attempted, checker.failed) == (1, 1)


def test_changed_bytes_count_as_failure(tmp_path):
    import ambcsim.cli as cli
    reference = {"seed": 0, "workloads": {
        "coverage-map": {"coverage": {"range.csv": "0" * 64}}}}
    checker = run.Checker("coverage-map", 7, reference)
    pas = run.run_pass(cli, run.invocations("coverage-map", 7, tiny=True),
                       str(tmp_path))
    checker.check(pas)
    assert checker.failed == 1
    assert "differ" in pas["invocations"][0]["error"]
