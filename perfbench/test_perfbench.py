"""Tests of the benchmark: its checks can fail, and it reports what it promises.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import Job, Workload  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

BUILD_GL11 = Job("build-gl(1|1)", ("build", "--family", "GL", "--m", "1",
                                   "--n", "1"),
                 {"system": "gl(1|1)", "positive_even": 0, "odd": 2,
                  "defect": 1})
VERIFY_GL21 = Job("verify-gl(2|1)-H4",
                  ("verify", "--family", "GL", "--m", "2", "--n", "1",
                   "--height", "4"),
                  {"system": "gl(2|1)", "equal": True,
                   "reports": [{"variant": "step2", "lhs_terms": 9,
                                "rhs_terms": 9, "verdict": True}]})


def _runner() -> run.Runner:
    return run.Runner(seed=7)


def _with_expect(job: Job, **changes) -> Job:
    return Job(job.name, job.argv, dict(job.expect, **changes))


def _main(monkeypatch, capsys, jobs, trace=0) -> tuple:
    monkeypatch.setitem(run.WORKLOADS, "tiny",
                        Workload(tuple(jobs), (BUILD_GL11,)))
    code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def test_pinned_output_passes():
    outcome = _runner().run(BUILD_GL11)
    assert outcome.ok, outcome.reason
    assert outcome.seconds > 0 and outcome.maxrss_mb > 0


def test_job_seconds_are_scaled_by_the_reference_timing():
    assert _runner().time_reference() > 0
    on_slow_host = run.Outcome("job", 4.0, 1.0, True,
                               reference_s=2 * run.REFERENCE_S)
    assert on_slow_host.adjusted_s == pytest.approx(2.0)


def test_wrong_expectation_fails_the_job():
    outcome = _runner().run(_with_expect(VERIFY_GL21, equal=False))
    assert not outcome.ok
    assert outcome.reason.startswith("output")


def test_wrong_exit_code_fails_the_job():
    bad = Job("no-such-family", ("verify", "--family", "X"), {})
    outcome = _runner().run(bad)
    assert not outcome.ok
    assert outcome.reason == "exit code 2"


def test_timeout_is_a_failure_and_the_pass_goes_on(monkeypatch):
    monkeypatch.setattr(run, "JOB_TIMEOUT_S", 0.3)
    slow = Job("slow", ("verify", "--family", "GL", "--m", "4", "--n", "4",
                        "--height", "10"), {})
    outcomes = _runner().run_pass([slow, BUILD_GL11], random.Random(0))
    by_name = {o.job: o for o in outcomes}
    assert not by_name["slow"].ok
    assert by_name["slow"].reason.startswith("timed out")
    assert by_name["slow"].seconds < 5
    assert by_name[BUILD_GL11.name].ok


def test_run_reports_every_end_to_end_metric(monkeypatch, capsys):
    code, result = _main(monkeypatch, capsys, [BUILD_GL11, VERIFY_GL21])
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0


def test_wrong_expectation_raises_fail_frac_and_exit_code(monkeypatch, capsys):
    code, result = _main(monkeypatch, capsys,
                         [BUILD_GL11, _with_expect(VERIFY_GL21, lhs_terms=8)])
    assert code == 1
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_traced_run_reports_every_layer_metric(monkeypatch, capsys):
    code, result = _main(monkeypatch, capsys, [VERIFY_GL21], trace=1)
    assert code == 0 and result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
    assert metrics["identity.lhs_s"]["value"] > 0
    assert metrics["simple.cone_key.calls"]["value"] > 0
    assert metrics["identity.terms_emitted"]["value"] == 2    # |W#| of gl(2|1)
    layers = sum(metrics["%s.self_s" % layer]["value"]
                 for layer in spans.SELF_LAYERS)
    assert layers <= metrics["trace.wall_s"]["value"]


def test_layer_metrics_derives_self_and_inclusive_time():
    doc = {"names": ["cli.main", "identity.lhs", "series.expand_terms"],
           # expand_terms nests in itself
           "name_id": [0, 1, 2, 2], "parent": [-1, 0, 1, 2],
           "start": [0.0, 1.0, 2.0, 2.5], "end": [10.0, 5.0, 4.0, 3.0],
           "counters": dict.fromkeys(spans.COUNTERS, 0)}
    out = spans.layer_metrics([doc])
    assert out["cli.self_s"] == pytest.approx(6.0)
    assert out["identity.self_s"] == pytest.approx(2.0)
    assert out["series.self_s"] == pytest.approx(2.0)
    assert out["identity.lhs_s"] == pytest.approx(4.0)
    assert out["series.expand_terms_s"] == pytest.approx(2.0)
    assert out["series.expand_terms.calls"] == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:]
        + ["--workload", "verify-gl", "--seed", "1", "--seconds", "1",
           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
