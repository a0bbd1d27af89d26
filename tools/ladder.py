"""Time the verify ladder, structure rungs and Tier-1 into BENCH_ladder.json.

    python3 tools/ladder.py LABEL [--repo DIR]

Each rung is the standard-pair `superdenom verify --variant step2
--output json` on one tall system, or at a proof height (gl(4|4) H=40,
D(4,2) H=64 and C(5) H=110), or a `superdenom qn` run, run three
times, each in its own process from DIR/src; the record keeps the median
wall time, the three samples and the per-phase times of the median run
(from the report's own `timings`, in microseconds).  The structure rungs
(`pairs`, `diagram` and `orbits`, none of which expands a series) are
timed the same way and keep only their wall times and exit codes.  The startup rung,
`superdenom build` on gl(3|3), is mostly interpreter start-up and
imports; it takes about 50 ms, so it keeps the median of
STARTUP_SAMPLES runs.  The Tier-1 suite is
`python -m pytest -q` in DIR, timed the same way, with pytest's summary
line kept.  DIR defaults to this repository; point it at a checkout of
the parent commit for the "before" numbers.

A shared host's speed drifts by up to 2x over hours, so raw seconds of
two records do not compare.  perfbench/reference.py's fixed task (this
repository's copy, run as it is) is timed in a child of its own before
every sample and after the last one.  Each sample, the startup rung's
and Tier-1's included, is scaled by REFERENCE_S / r, r being the median
of all the probe timings of the record (`reference_s_median`).  Single
probes swing widely: around one rung's three samples they read 0.218,
0.186 and 0.126 s within one record, and scaling each sample by the
probes next to it moved that rung 1.26x with no change to the code.  One
median per record takes out the drift between records only.  A rung
keeps its raw samples, as `reference_s` the mean of the two probes next
to each sample, its scaled samples, and as `scaled_s` the median of
those.  Like perfbench/run.py, the ladder pins itself to the lowest
processor it may run on before the first probe; every rung, probe and
Tier-1 child inherits the pin, so the probe and the jobs see the same
contention from the rest of the host.

The children write their bytecode to .bench_build/pycache at the root of
this repository (also when PYTHONDONTWRITEBYTECODE is set outside), and
one untimed run of the cheapest rung fills it first, so no timed sample
includes compiling the modules.

The record is appended to the `runs` list of BENCH_ladder.json at the
root of this repository under LABEL, together with the commit of DIR,
the Python version, the processor count and the pinned processor set
(`cpus`), so one file carries the before and after numbers of each
change.  The record is written even when a rung fails; the exit code is
then 1.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference.py"
# perfbench/run.py's REFERENCE_S: the probe's seconds on an unloaded host
REFERENCE_S = 0.130
SAMPLES = 3
STARTUP_SAMPLES = 11

# (label, family arguments, height): the tall rungs the benchmark leaves
# out; gl(4|4) H=40, D(4,2) H=64 and C(5) H=110 are proof heights, where
# lhs is most of the run
LADDER = (
    ("gl(5|5)", ("--family", "GL", "--m", "5", "--n", "5"), 12),
    ("D(5,3)", ("--family", "D", "--m", "5", "--n", "3"), 10),
    ("C(6)", ("--family", "C", "--n", "6"), 10),
    ("D(4,2)", ("--family", "D", "--m", "4", "--n", "2"), 64),
    ("gl(4|4)", ("--family", "GL", "--m", "4", "--n", "4"), 40),
    ("C(5)", ("--family", "C", "--n", "5"), 110),
    ("B(4,3)", ("--family", "B", "--m", "4", "--n", "3"), 10),    # cheapest
)

# (label, arguments): the q(n) identity, its phases timed like a verify rung
QN = (
    ("qn q(8) H=8", ("qn", "--n", "8", "--height", "8")),
)

# (label, arguments): odd reflections, diagram classes and the orbit scan
STRUCTURE = (
    ("pairs gl(4|4)", ("pairs", "--family", "GL", "--m", "4", "--n", "4")),
    ("diagram D(4,2)", ("diagram", "--family", "D", "--m", "4", "--n", "2")),
    ("orbits gl(3|3) H=10", ("orbits", "--family", "GL", "--m", "3",
                             "--n", "3", "--height", "10")),
    ("orbits C(4) H=12", ("orbits", "--family", "C", "--n", "4",
                          "--height", "12")),
)

# a run that does almost no work: start-up and imports
STARTUP = ("build", "--family", "GL", "--m", "3", "--n", "3")


def _env(repo: Path) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    env["PYTHONPATH"] = str(repo / "src")
    return env


def _run(repo: Path, args: tuple):
    """One `superdenom ARGS --output json` process: its record and output."""
    argv = [sys.executable, "-m", "superdenom", *args, "--output", "json"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=repo, env=_env(repo),
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    out = {"command": " ".join(["superdenom"] + argv[3:]),
           "wall_s": round(wall, 3), "exit": proc.returncode}
    if proc.returncode != 0:
        out["stderr"] = proc.stderr.strip().splitlines()[-1:]
    return out, proc.stdout


def _verify_args(family: tuple, height: int) -> tuple:
    return ("verify", *family, "--height", str(height), "--variant", "step2")


def time_rung(repo: Path, args: tuple) -> dict:
    """One `verify` or `qn` process: wall seconds, phase seconds, verdict."""
    out, stdout = _run(repo, args)
    if out["exit"] != 0:
        return out
    result = json.loads(stdout)["result"]
    (report,) = result.get("reports", [result])
    out["equal"] = report["equal"]
    out["phases_s"] = {k: round(v / 1e6, 3)
                       for k, v in sorted(report["timings"].items())}
    return out


def time_tier1(repo: Path) -> dict:
    """The Tier-1 suite in one process: wall seconds and pytest's summary."""
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=repo, env=_env(repo),
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 3), "exit": proc.returncode,
            "summary": lines[-1] if lines else ""}


def time_reference() -> float:
    """Seconds of reference.py's fixed task, in a child of its own."""
    proc = subprocess.run([sys.executable, "-S", str(REFERENCE)],
                          capture_output=True, text=True, check=True)
    return float(proc.stdout.split()[-1])


class Probe:
    """The host-speed probe between samples: the task is timed before the
    first sample and after every one, and `timings` keeps them all."""

    def __init__(self):
        self.timings = [time_reference()]

    def median_of(self, run, count: int = SAMPLES) -> dict:
        """count calls of run(): the median one by wall time, or the first
        that failed, with every wall time and, as `reference_s`, the mean
        of the two probe times next to each sample."""
        samples, refs = [], []
        for _ in range(count):
            before = self.timings[-1]
            samples.append(run())
            self.timings.append(time_reference())
            refs.append(round((before + self.timings[-1]) / 2, 4))
        out = next((s for s in samples if s["exit"] != 0),
                   sorted(samples, key=lambda s: s["wall_s"])[count // 2])
        out["samples_s"] = [s["wall_s"] for s in samples]
        out["reference_s"] = refs
        return out


def scale(entries, reference: float) -> None:
    """Add each entry's samples scaled by REFERENCE_S / reference, and
    their median as `scaled_s`."""
    for out in entries:
        scaled = [s * REFERENCE_S / reference for s in out["samples_s"]]
        out["scaled_samples_s"] = [round(x, 3) for x in scaled]
        out["scaled_s"] = round(statistics.median(scaled), 3)


def _commit(repo: Path) -> str:
    """HEAD of repo, marked '+dirty' when the tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(repo), *args],
                              capture_output=True, text=True)
    head = git("rev-parse", "--short", "HEAD")
    if head.returncode != 0:
        return "unknown"
    dirty = git("diff", "--quiet", "HEAD").returncode != 0
    return head.stdout.strip() + ("+dirty" if dirty else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("--repo", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    out = ROOT / "BENCH_ladder.json"
    repo = args.repo.resolve()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # warm-up: fills the bytecode cache
    time_rung(repo, _verify_args(*LADDER[-1][1:]))
    probe = Probe()
    rungs = {}
    verify = [("%s H=%d" % (name, height), _verify_args(family, height))
              for name, family, height in LADDER]
    for key, command in verify + list(QN):
        rungs[key] = probe.median_of(lambda: time_rung(repo, command))
        print(key, rungs[key]["samples_s"], "s", flush=True)
    structure = {}
    for key, command in STRUCTURE:
        structure[key] = probe.median_of(lambda: _run(repo, command)[0])
        print(key, structure[key]["samples_s"], "s", flush=True)
    startup = probe.median_of(lambda: _run(repo, STARTUP)[0],
                              STARTUP_SAMPLES)
    print("startup", startup["samples_s"], "s", flush=True)
    tier1 = probe.median_of(lambda: time_tier1(repo))
    print("tier-1", tier1["wall_s"], "s:", tier1["summary"], flush=True)
    reference = statistics.median(probe.timings)
    scale([*rungs.values(), *structure.values(), startup, tier1], reference)
    record = {"label": args.label, "commit": _commit(repo),
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "cpus": sorted(os.sched_getaffinity(0)),
              "reference_s_unloaded": REFERENCE_S,
              "reference_s_median": round(reference, 4),
              "rungs": rungs, "structure": structure, "startup": startup,
              "tier1": tier1}
    doc = json.loads(out.read_text()) if out.exists() else {"runs": []}
    doc["runs"].append(record)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    failed = [k for k, v in rungs.items() if v["exit"] != 0
              or not v.get("equal")]
    failed += [k for k, v in structure.items() if v["exit"] != 0]
    if startup["exit"] != 0:
        failed.append("startup")
    return 1 if failed or tier1["exit"] != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
