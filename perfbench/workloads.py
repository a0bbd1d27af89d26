"""The benchmark's workloads: fixed CLI jobs and their pinned outputs.

Every job is one `superdenom ... --output json` invocation that must exit
with 0.  Its expected output is the timing-free summary that `summarize`
extracts from the JSON report; the values were pinned from the program as
first benchmarked, so a change that alters a verdict, a term count or a
class count fails the job.  README.md in this directory and BENCHMARK.json
give the reason for each workload.
"""

from __future__ import annotations

from dataclasses import dataclass

@dataclass(frozen=True)
class Job:
    """One CLI invocation and the summary its JSON report must produce."""

    name: str
    argv: tuple
    expect: dict


@dataclass(frozen=True)
class Workload:
    jobs: tuple
    setup: tuple      # `superdenom build` jobs timed for setup_s


def _system(family: str, m: int = 0, n: int = 0) -> tuple:
    if family in ("C", "Q"):
        return ("--family", family, "--n", str(n))
    return ("--family", family, "--m", str(m), "--n", str(n))


def _verify(label, family, m, n, height, variant, reports) -> Job:
    argv = ("verify",) + _system(family, m, n) + ("--height", str(height))
    if variant is not None:
        argv += ("--variant", variant)
    return Job(
        "verify-%s-H%d" % (label, height), argv,
        {"system": label, "equal": True,
         "reports": [{"variant": v, "lhs_terms": lt, "rhs_terms": rt,
                      "verdict": True} for v, lt, rt in reports]})


def _build(label, family, m, n, positive_even, odd, defect) -> Job:
    return Job("build-" + label, ("build",) + _system(family, m, n),
               {"system": label, "positive_even": positive_even,
                "odd": odd, "defect": defect})


def summarize(payload: dict) -> dict:
    """The timing-free part of a JSON report that the checks compare."""
    command = payload["command"]
    result = payload["result"]
    if command == "build":
        return {"system": result["type"],
                "positive_even": len(result["positive_even"]),
                "odd": len(result["odd"]), "defect": result["defect"]}
    if command == "verify":
        return {"system": payload["system"], "equal": result["equal"],
                "reports": [{"variant": r["variant"],
                             "lhs_terms": r["lhs_terms"],
                             "rhs_terms": r["rhs_terms"],
                             "verdict": r["equal"]
                             and all(r["checks"].values())
                             and r["first_discrepancy"] is None}
                            for r in result["reports"]]}
    if command == "qn":
        return {"a": payload["a"], "equal": result["equal"],
                "lhs_terms": result["lhs_terms"],
                "rhs_terms": result["rhs_terms"]}
    if command == "pairs":
        return {"system": payload["system"], "count": result["count"],
                "with_diagram": sum(p["diagram"] is not None
                                    for p in result["pairs"])}
    if command == "diagram":
        return {"system": payload["system"], "count": result["count"],
                "classes": [c["render"] for c in result["classes"]]}
    if command == "orbits":
        return {"system": payload["system"],
                "representatives": result["representatives"]}
    raise ValueError("no summary for command %r" % (command,))


_BUILD_GL44 = _build("gl(4|4)", "GL", 4, 4, 12, 32, 4)
_BUILD_GL33 = _build("gl(3|3)", "GL", 3, 3, 6, 18, 3)
_BUILD_D42 = _build("D(4,2)", "D", 4, 2, 16, 32, 2)

WORKLOADS = {
    "verify-gl": Workload(
        jobs=(
            _verify("gl(4|4)", "GL", 4, 4, 10, "step2",
                    [("step2", 2782, 2782)]),
            _verify("gl(5|4)", "GL", 5, 4, 11, "step2",
                    [("step2", 8324, 8324)]),
            _verify("gl(3|3)", "GL", 3, 3, 14, "step2",
                    [("step2", 1315, 1315)]),
        ),
        setup=(_BUILD_GL44, _build("gl(5|4)", "GL", 5, 4, 16, 40, 4),
               _BUILD_GL33),
    ),
    "verify-wsharp": Workload(
        jobs=(
            _verify("C(5)", "C", 0, 5, 10, None, [("step2", 491, 491)]),
            _verify("D(4,2)", "D", 4, 2, 8, None,
                    [("step2", 389, 389), ("step3", 395, 395),
                     ("step3_prime", 395, 395),
                     ("second_class", 433, 433)]),
            _verify("B(4,3)", "B", 4, 3, 8, None,
                    [("step2", 996, 996), ("step3", 996, 996)]),
            Job("qn-7-H8", ("qn", "--n", "7", "--height", "8"),
                {"a": -6, "equal": True, "lhs_terms": 1053,
                 "rhs_terms": 1053}),
        ),
        setup=(_build("C(5)", "C", 0, 5, 25, 20, 1), _BUILD_D42,
               _build("B(4,3)", "B", 4, 3, 25, 54, 3),
               _build("Q(7)", "Q", 0, 7, 21, 42, 0)),
    ),
    "structure": Workload(
        jobs=(
            Job("pairs-gl(4|4)", ("pairs",) + _system("GL", 4, 4),
                {"system": "gl(4|4)", "count": 16, "with_diagram": 16}),
            Job("diagram-D(4,2)", ("diagram",) + _system("D", 4, 2),
                {"system": "D(4,2)", "count": 2,
                 "classes": ["a⌢bb⌣aaa", "b⌣ab⌣aaa"]}),
            Job("orbits-gl(3|3)-H10",
                ("orbits",) + _system("GL", 3, 3) + ("--height", "10"),
                {"system": "gl(3|3)",
                 "representatives": [
                     "-2*e1 - 3*e2 - 4*e3 + 4*d1 + 3*d2 + 2*d3",
                     "-e1 - 2*e2 - 3*e3 + 3*d1 + 2*d2 + d3",
                     "-e2 - 2*e3 + 2*d1 + d2",
                     "e1 - e3 + d1 - d3"]}),
            Job("orbits-C(3)-H12",
                ("orbits",) + _system("C", 0, 3) + ("--height", "12"),
                {"system": "C(3)", "representatives": ["3*e1 + 2*e2 + e3"]}),
        ),
        setup=(_BUILD_GL44, _BUILD_D42, _BUILD_GL33,
               _build("C(3)", "C", 0, 3, 9, 12, 1)),
    ),
}
