"""Benchmark of the superdenom CLI: verify ladders, structure, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every job is a fresh `python3 -S -m superdenom ... --output json` child run
from this checkout's `src`, one at a time (a closed loop with one client),
so the per-process group and `cone_key` caches start cold as they do for a
user.  The children get a fixed environment: PYTHONHASHSEED comes from the
seed, and SUPERDENOM_WORKERS is never set.  The seed also orders the jobs
within each pass.  Each job's exit code and timing-free output are checked
against the values pinned in workloads.py; a timeout, a traceback or a
mismatch counts as a failed job and the pass goes on.

The run pins itself and its children to one processor.  Between jobs it
times reference.py's fixed task in a child of its own; each job's seconds
are scaled by REFERENCE_S over the mean of the timings just before and
after it, which takes out most of a shared host's changing speed.

With --trace 0 the run times `superdenom build` on the workload's systems
(setup_s) and then repeats passes over the job list for about --seconds,
reporting per-job medians of the scaled seconds.  With --trace 1 it makes
one plain pass and one traced pass (see spans.py) and reports the
per-layer metrics and the tracing overhead in unscaled seconds.  The last
line of standard output is the result object, and the line before it the
run's detail (failures, samples, raw job seconds and reference timings,
Python version, nproc, commit).  The exit code is 1 when any job failed,
2 when the program cannot be run from this checkout.  See README.md for
the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
from workloads import WORKLOADS, Job, summarize  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
SETUP_ROUNDS = 3
JOB_TIMEOUT_S = 30.0
# About what reference.py's task takes on an unloaded moment of the machine
# the benchmark was calibrated on (2 vCPUs, Intel Xeon at 2.1 GHz, Python
# 3.11.7).  Scaled seconds are seconds at that speed.
REFERENCE_S = 0.130


@dataclass
class Outcome:
    job: str
    seconds: float
    maxrss_mb: float
    ok: bool
    reason: str = ""
    reference_s: float = REFERENCE_S

    @property
    def adjusted_s(self) -> float:
        """The job's seconds scaled to the host speed of REFERENCE_S."""
        return self.seconds * REFERENCE_S / self.reference_s


class Runner:
    """Runs jobs one at a time in fresh children and checks their output."""

    def __init__(self, seed: int):
        self.env = {
            "PATH": os.defpath,
            "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": str(seed % 2 ** 32),
            "PYTHONPYCACHEPREFIX": str(BUILD / "pycache"),
            "PYTHONUTF8": "1",
        }
        self.outdir = BUILD / "out"
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.reference_s = None

    def time_reference(self) -> float:
        """Seconds of reference.py's task, in a child of its own."""
        out = subprocess.run(
            [sys.executable, "-S", str(BENCH / "reference.py")], env=self.env,
            cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=JOB_TIMEOUT_S).stdout
        return float(out)

    def run(self, job: Job, trace_dir: Path = None) -> Outcome:
        """Runs one job between two timings of reference.py's task.

        The mean of the two measures the host's speed while the job ran.  The
        timing after a job serves as the one before the next.
        """
        before = self.reference_s or self.time_reference()
        outcome = self._run(job, trace_dir)
        self.reference_s = self.time_reference()
        outcome.reference_s = (before + self.reference_s) / 2
        return outcome

    def _run(self, job: Job, trace_dir: Path = None) -> Outcome:
        if trace_dir is None:
            prefix = ["-m", "superdenom"]
        else:
            prefix = [str(BENCH / "spans.py"),
                      str(_trace_path(trace_dir, job.name)), job.name, "--"]
        cmd = [sys.executable, "-S"] + prefix + list(job.argv) \
            + ["--output", "json"]
        stdout_path = self.outdir / "stdout.json"
        stderr_path = self.outdir / "stderr.txt"
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            seconds, status, usage, timed_out = _wait_child(
                cmd, self.env, out, err, JOB_TIMEOUT_S)
        maxrss_mb = usage.ru_maxrss / 1024.0
        if timed_out:
            return Outcome(job.name, seconds, maxrss_mb, False,
                           "timed out after %.0f s" % JOB_TIMEOUT_S)
        return Outcome(job.name, seconds, maxrss_mb,
                       *_check(job, os.waitstatus_to_exitcode(status),
                               stdout_path.read_text(encoding="utf-8"),
                               stderr_path.read_text(encoding="utf-8",
                                                     errors="replace")))

    def run_pass(self, jobs, rng: random.Random, trace_dir: Path = None):
        order = list(jobs)
        rng.shuffle(order)
        return [self.run(job, trace_dir) for job in order]


def _wait_child(cmd, env, out, err, timeout_s):
    """Run cmd to completion; returns (seconds, status, rusage, timed_out).

    The child is killed after timeout_s, and also when this process is
    interrupted.  It is reaped only after the kill window has closed, so a
    late kill can reach nothing but its zombie.  The rusage comes from
    wait4 on this child alone, so ru_maxrss is its own peak resident set.
    """
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)

    def kill():
        with lock:
            if not state["exited"]:
                state["killed"] = True
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout_s, kill)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        seconds = time.perf_counter() - start
    except BaseException:
        kill()
        raise
    finally:
        with lock:
            state["exited"] = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = state["killed"] and os.WIFSIGNALED(status) \
        and os.WTERMSIG(status) == signal.SIGKILL
    return seconds, status, usage, timed_out


def _check(job: Job, code: int, stdout: str, stderr: str) -> tuple:
    """(ok, reason) for one finished job."""
    if "Traceback" in stderr:
        return False, "traceback: %s" % stderr.strip().splitlines()[-1]
    if code != 0:
        return False, "exit code %d" % code
    lines = stdout.strip().splitlines()
    try:
        got = summarize(json.loads(lines[-1]))
    except (IndexError, ValueError, KeyError, TypeError) as exc:
        return False, "unreadable report: %r" % (exc,)
    if got != job.expect:
        return False, "output %s, expected %s" % (
            json.dumps(got, ensure_ascii=False),
            json.dumps(job.expect, ensure_ascii=False))
    return True, ""


def _trace_path(trace_dir: Path, job_name: str) -> Path:
    slug = "".join(c if c.isalnum() or c in "-_." else "_" for c in job_name)
    return trace_dir / (slug + ".json")


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def environment() -> dict:
    """Python version, processors and the commit, for every result."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def preflight(runner: Runner, job: Job) -> str:
    """Why the program cannot be benchmarked here, or '' when it can.

    Runs one untimed job, which also compiles the bytecode the timed
    children then load.
    """
    if not (SRC / "superdenom" / "cli.py").is_file():
        return "no superdenom sources under %s" % SRC
    outcome = runner.run(job)
    if not outcome.ok:
        return "warm-up job %s failed: %s" % (job.name, outcome.reason)
    return ""


def measure_end_to_end(runner, workload, rng, seconds) -> tuple:
    """Setup rounds, then jobs in shuffled passes for about `seconds`.

    The first pass always completes.  Then the run stops when one more job
    of the average length so far would end after `seconds`.  Each metric
    is taken from the median of each job's samples.
    """
    setup = [runner.run(job) for _ in range(SETUP_ROUNDS)
             for job in workload.setup]
    timed = []
    start = time.perf_counter()
    for job in _passes(workload.jobs, rng):
        timed.append(runner.run(job))
        elapsed = time.perf_counter() - start
        if len(timed) >= len(workload.jobs) \
                and elapsed + elapsed / len(timed) > seconds:
            break
    job_s, job_rss = {}, {}
    for o in timed:
        job_s.setdefault(o.job, []).append(o.adjusted_s)
        job_rss.setdefault(o.job, []).append(o.maxrss_mb)
    medians = [statistics.median(v) for v in job_s.values()]
    setup_s = [o.adjusted_s for o in setup]
    metrics = {
        "wall_s": _metric(sum(medians), "s"),
        "max_job_s": _metric(max(medians), "s"),
        "peak_rss_mb": _metric(
            max(statistics.median(v) for v in job_rss.values()), "MB"),
        "setup_s": _metric(statistics.median(setup_s), "s"),
    }
    samples = {"job_s": job_s, "job_rss_mb": job_rss, "setup_s": setup_s}
    return metrics, samples, setup + timed


def _passes(jobs, rng):
    """The jobs, pass after pass, each pass in a fresh shuffled order."""
    while True:
        order = list(jobs)
        rng.shuffle(order)
        yield from order


def measure_layers(runner, workload, rng, name, seed) -> tuple:
    trace_dir = BUILD / "trace" / ("%s-seed%d" % (name, seed))
    trace_dir.mkdir(parents=True, exist_ok=True)
    for stale in trace_dir.glob("*.json"):
        stale.unlink()
    plain = runner.run_pass(workload.jobs, rng)
    traced = runner.run_pass(workload.jobs, rng, trace_dir)
    values = spans.layer_metrics(
        json.loads(_trace_path(trace_dir, o.job).read_text())
        for o in traced if o.ok)
    traced_wall = sum(o.seconds for o in traced)
    plain_wall = sum(o.seconds for o in plain)
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = plain_wall
    values["trace.overhead_s"] = traced_wall - plain_wall
    metrics = {key: _metric(value, _unit(key))
               for key, value in values.items()}
    return metrics, {}, plain + traced


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    env = environment()     # before the pinning, so nproc counts them all
    # The reference timings and the children share one processor, so they
    # see the same contention from the rest of the host.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(args.seed)
    reason = preflight(runner, workload.setup[0])
    if reason:
        print("perfbench: cannot run: %s" % reason, file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    if args.trace:
        metrics, samples, outcomes = measure_layers(
            runner, workload, rng, args.workload, args.seed)
    else:
        metrics, samples, outcomes = measure_end_to_end(
            runner, workload, rng, args.seconds)
    failed = [o for o in outcomes if not o.ok]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env,
        "jobs_attempted": len(outcomes), "jobs_failed": len(failed),
        "fail_frac": len(failed) / len(outcomes),
        "failures": [{"job": o.job, "reason": o.reason} for o in failed],
        "samples": samples,
        "job_seconds": [[o.job, o.seconds, o.reference_s]
                        for o in outcomes],
    }
    for o in failed:
        print("FAILED %s: %s" % (o.job, o.reason))
    print("fail_frac = %d/%d = %.4f" % (len(failed), len(outcomes),
                                       detail["fail_frac"]))
    for key, metric in metrics.items():
        print("%-40s %14.6f %s" % (key, metric["value"], metric["unit"]))
    if samples:
        print("samples: %d timed jobs (%s), %d setup runs" % (
            sum(map(len, samples["job_s"].values())),
            ", ".join("%s %d" % (job, len(v))
                      for job, v in sorted(samples["job_s"].items())),
            len(samples["setup_s"])))
    print("host speed %.3f of the calibration machine (median over %d jobs)"
          % (REFERENCE_S / statistics.median(o.reference_s for o in outcomes),
             len(outcomes)))
    print(json.dumps({"perfbench_detail": detail}))
    print(json.dumps({"correct": not failed, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
