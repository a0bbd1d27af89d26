"""Time the verify ladder, structure rungs and Tier-1 into BENCH_ladder.json.

    python3 tools/ladder.py LABEL [--repo DIR] [--against REV]

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

The probe does not make two records taken one after the other agree on
rungs that no change touched (a `pairs gl(4|4)` rung read 0.067 ->
0.065 s raw but 0.084 -> 0.094 s scaled), so a change is measured
against its parent in one record: `--against REV` checks REV out into a
temporary `git worktree` of DIR's repository (no network), removed again
at the end, and times every rung on both trees in turn, parent then
change, sample by sample (ABAB...), on the same pinned processor.  Each
rung, the startup rung and Tier-1 then hold `parent` and `change`, each
an entry as above, and the change's wall time over the parent's for each
pair of samples (`ratios`), their median (`ratio_median`) and the number
of pairs in which the change was faster (`change_wins`).  The record
names REV's commit as `against`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
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
           "wall_s": round(wall, 4), "exit": proc.returncode}
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

    def median_of(self, runs, count: int = SAMPLES) -> list:
        """count rounds of one call of each of runs in turn (ABAB... for a
        parent and a change): for each run, its median sample by wall
        time, or the first that failed, with every wall time and, as
        `reference_s`, the mean of the two probe times next to each
        sample."""
        samples = [[] for _ in runs]
        refs = [[] for _ in runs]
        for _ in range(count):
            for run, got, ref in zip(runs, samples, refs):
                before = self.timings[-1]
                got.append(run())
                self.timings.append(time_reference())
                ref.append(round((before + self.timings[-1]) / 2, 4))
        outs = []
        for got, ref in zip(samples, refs):
            out = next((s for s in got if s["exit"] != 0),
                       sorted(got, key=lambda s: s["wall_s"])[count // 2])
            out["samples_s"] = [s["wall_s"] for s in got]
            out["reference_s"] = ref
            outs.append(out)
        return outs


def paired(parent: dict, change: dict) -> dict:
    """Both sides of a rung, the change's wall time over the parent's for
    each pair of samples, their median and the change's win count."""
    ratios = [c / p for p, c in zip(parent["samples_s"], change["samples_s"])]
    return {"parent": parent, "change": change,
            "ratios": [round(r, 3) for r in ratios],
            "ratio_median": round(statistics.median(ratios), 3),
            "change_wins": sum(r < 1 for r in ratios)}


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


@contextlib.contextmanager
def worktree(repo: Path, rev: str):
    """REV of repo's repository checked out in a temporary directory."""
    tmp = Path(tempfile.mkdtemp(prefix="ladder-"))
    tree = tmp / "tree"
    git = ["git", "-C", str(repo), "worktree"]
    try:
        subprocess.run([*git, "add", "--detach", "--quiet", str(tree), rev],
                       check=True)
        yield tree
    finally:
        # fails harmlessly when REV could not be checked out
        subprocess.run([*git, "remove", "--force", str(tree)],
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)


def ladder(repos: list) -> tuple:
    """Every rung, the startup rung and Tier-1 on each of repos in turn:
    the record's timings, each entry `paired` when repos are a parent and
    a change, and whether any run failed or found the identity false."""
    probe = Probe()

    def measure(key, run, count=SAMPLES):
        outs = probe.median_of([lambda r=r: run(r) for r in repos], count)
        print(key, *(out["samples_s"] for out in outs), "s", flush=True)
        return outs

    rungs = {}
    verify = [("%s H=%d" % (name, height), _verify_args(family, height))
              for name, family, height in LADDER]
    for key, command in verify + list(QN):
        rungs[key] = measure(key, lambda r: time_rung(r, command))
    structure = {key: measure(key, lambda r: _run(r, command)[0])
                 for key, command in STRUCTURE}
    startup = measure("startup", lambda r: _run(r, STARTUP)[0],
                      STARTUP_SAMPLES)
    tier1 = measure("tier-1", time_tier1)
    entries = [*rungs.values(), *structure.values(), startup, tier1]
    reference = statistics.median(probe.timings)
    runs = [out for outs in entries for out in outs]
    scale(runs, reference)
    failed = any(out["exit"] != 0 for out in runs) or not all(
        out.get("equal") for outs in rungs.values() for out in outs)

    def record(outs):
        return outs[0] if len(outs) == 1 else paired(*outs)
    return {"reference_s_median": round(reference, 4),
            "rungs": {k: record(v) for k, v in rungs.items()},
            "structure": {k: record(v) for k, v in structure.items()},
            "startup": record(startup), "tier1": record(tier1)}, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("--repo", type=Path, default=ROOT)
    parser.add_argument("--against", metavar="REV")
    args = parser.parse_args(argv)
    out = ROOT / "BENCH_ladder.json"
    repo = args.repo.resolve()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    record = {"label": args.label, "commit": _commit(repo),
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "cpus": sorted(os.sched_getaffinity(0)),
              "reference_s_unloaded": REFERENCE_S}
    with (worktree(repo, args.against) if args.against
          else contextlib.nullcontext()) as parent:
        repos = [repo] if parent is None else [parent, repo]
        if parent is not None:
            record["against"] = _commit(parent)
        # warm-up: fills the bytecode cache
        for r in repos:
            time_rung(r, _verify_args(*LADDER[-1][1:]))
        timings, failed = ladder(repos)
    record.update(timings)
    doc = json.loads(out.read_text()) if out.exists() else {"runs": []}
    doc["runs"].append(record)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
