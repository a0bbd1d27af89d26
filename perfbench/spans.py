"""Per-layer tracing of one superdenom CLI invocation, and its aggregation.

As a program it runs one traced job:

    python3 -S perfbench/spans.py OUT.json JOB -- <superdenom arguments>

It wraps every public function of the layer modules (and the few methods
in METHODS) at each module attribute that refers to it, so callers that
imported a name with `from .series import expand_terms` reach the wrapper
too.  Each call records a span (name, start, end, parent) in memory.  The
whole `superdenom.cli.main` call is the root span of the job.  After main
returns, the counters that need the arguments or results are completed
from outside the timed calls, and spans and counters are written to
OUT.json.  The parent benchmark derives the per-layer metrics from those
files with `layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
import sys
import time

LAYERS = ("roots", "groups", "simple", "diagrams", "series", "identity",
          "weights")
# lp is not traced: only identity.xi_presentation_unique reaches it, and
# no CLI subcommand calls that.

METHODS = {
    "simple": ("SimpleSystem.cone_key", "SimpleSystem.cone"),
    "series": ("FormalSeries.eq_report", "FormalSeries.mul_binomial",
               "FormalSeries.mul_geometric"),
}

# Per-layer metric -> span name whose outermost calls it sums (inclusive).
INCLUSIVE = {
    "identity.lhs_s": "identity.lhs",
    "identity.rhs_closed_s": "identity.rhs_closed",
    "identity.rhs_expanded_s": "identity.rhs_expanded",
    "identity.skew_s": "identity.skew_invariance_check",
    "identity.compare_s": "series.FormalSeries.eq_report",
    "identity.closed_form_terms_s": "identity.closed_form_terms",
    "identity.qn_s": "identity.qn_identity",
    "series.expand_terms_s": "series.expand_terms",
    "series.mul_binomial_s": "series.FormalSeries.mul_binomial",
    "series.mul_geometric_s": "series.FormalSeries.mul_geometric",
    "series.canonical_terms_s": "series.canonical_terms",
    "groups.enumerate_group_s": "groups.enumerate_group",
    "groups.orbit_s": "groups.orbit",
    "simple.derive_s": "simple.derive",
    "simple.enumerate_admissible_pairs_s": "simple.enumerate_admissible_pairs",
    "diagrams.equivalence_classes_s": "diagrams.equivalence_classes",
    "roots.build_s": "roots.build",
}

# Per-layer metric -> span name whose calls it counts.
CALLS = {
    "series.expand_terms.calls": "series.expand_terms",
    "groups.orbit.calls": "groups.orbit",
    "groups.reflection.calls": "groups.reflection",
    "simple.derive.calls": "simple.derive",
    "simple.cone_key.calls": "simple.SimpleSystem.cone_key",
    "diagrams.canonical_form.calls": "diagrams.canonical_form",
    "weights.solve_in_span.calls": "weights.solve_in_span",
    "weights.bilinear_form.calls": "weights.bilinear_form",
}

# Counters the traced child measures from arguments and results.
COUNTERS = ("identity.terms_emitted", "identity.terms_within_H",
            "series.terms_in", "series.keys_out", "series.peak_support",
            "groups.elements", "simple.cone_key.distinct")

SELF_LAYERS = ("cli",) + LAYERS


class Tracer:
    """Spans of one job, kept in memory as columns indexed by span id.

    Columns of machine numbers keep the spans out of the garbage
    collector's view, so tracing changes the program's collections less.
    """

    def __init__(self):
        self.names = []
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.w_sums = []              # (terms, frame, H) rhs_closed expands
        self.cone_key_frames = []     # cone_key arguments, hashed later
        self.cone_key_weights = []
        self.series_type = importlib.import_module(
            "superdenom.series").FormalSeries

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = \
            self.name_id, self.parent, self.start, self.end
        stack = self.stack
        after = self._after_hook(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(end)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def in_span(self, name: str) -> bool:
        """Is the caller of the innermost open span inside span `name`?"""
        caller = self.parent[self.stack[-1]]
        return caller >= 0 and self.names[self.name_id[caller]] == name

    def _after_hook(self, name):
        counters = self.counters

        def support(args, result):
            if isinstance(result, self.series_type):
                size = result.nonzero_count()
                if size > counters["series.peak_support"]:
                    counters["series.peak_support"] = size

        if name == "series.expand_terms":
            def hook(args, result):
                counters["series.keys_out"] += result.nonzero_count()
                support(args, result)
            return hook
        if name == "groups.enumerate_group":
            def hook(args, result):
                counters["groups.elements"] += len(result)
            return hook
        if name == "simple.SimpleSystem.cone_key":
            frames, weights = self.cone_key_frames, self.cone_key_weights

            def hook(args, result):
                frames.append(args[0])
                weights.append(args[1])
            return hook
        if name.startswith(("series.", "identity.")):
            return support
        return None

    def finish(self, originals) -> None:
        """Counters that need no timing, taken after the root span ends."""
        self.counters["simple.cone_key.distinct"] = len(
            {(id(frame), _value_key(weight)) for frame, weight
             in zip(self.cone_key_frames, self.cone_key_weights)})
        normalize = originals["series.normalize"]
        cone_key = originals["simple.SimpleSystem.cone_key"]
        for terms, frame, H in self.w_sums:
            self.counters["identity.terms_emitted"] += len(terms)
            self.counters["identity.terms_within_H"] += sum(
                sum(cone_key(frame, frame.rho - normalize(t, frame).exponent))
                <= H for t in terms)

    def to_json(self, job: str) -> dict:
        return {"job": job, "names": self.names,
                "name_id": self.name_id.tolist(),
                "parent": self.parent.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "counters": self.counters}


def _value_key(weight) -> tuple:
    """A weight's coordinates as integer pairs, which hash far faster."""
    return tuple((c.numerator, c.denominator) for c in weight.coords())


def _count_terms(tracer: Tracer, fn):
    """expand_terms that records its input terms.

    The terms rhs_closed hands over are kept for the useful-work count.
    """
    @functools.wraps(fn)
    def call(terms, frame, H, *args, **kwargs):
        terms = terms if isinstance(terms, (list, tuple)) else list(terms)
        tracer.counters["series.terms_in"] += len(terms)
        if tracer.in_span("identity.rhs_closed"):
            tracer.w_sums.append((terms, frame, H))
        return fn(terms, frame, H, *args, **kwargs)
    return call


def install(tracer: Tracer) -> dict:
    """Wrap the layer functions everywhere they are referenced.

    Returns the original callables by span name.
    """
    originals, replacement = {}, {}
    for layer in LAYERS:
        module = importlib.import_module("superdenom." + layer)
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) \
                    or obj.__module__ != module.__name__:
                continue
            name = "%s.%s" % (layer, attr)
            originals[name] = obj
            inner = _count_terms(tracer, obj) \
                if name == "series.expand_terms" else obj
            replacement[id(obj)] = tracer.wrap(name, inner)
        for qualified in METHODS.get(layer, ()):
            cls_name, method = qualified.split(".")
            cls = getattr(module, cls_name)
            name = "%s.%s" % (layer, qualified)
            originals[name] = vars(cls)[method]
            setattr(cls, method, tracer.wrap(name, originals[name]))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "superdenom" and not mod_name.startswith("superdenom."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in replacement:    # originals keeps the ids unique
                setattr(module, attr, replacement[id(obj)])
    return originals


def run_job(out_path: str, job: str, argv: list) -> int:
    from superdenom import cli
    tracer = Tracer()
    originals = install(tracer)
    main = tracer.wrap("cli.main", cli.main)
    code = main(argv)
    sys.stdout.flush()
    tracer.finish(originals)
    with open(out_path, "w") as fh:
        fh.write(json.dumps(tracer.to_json(job)))
    return code


# ---------------------------------------------------------------------------
# aggregation in the parent

def layer_metrics(docs) -> dict:
    """Per-layer metrics over the span files of one traced pass.

    Inclusive times sum the outermost call of each named function, so a
    nested call of the same name is not counted twice.  A layer's self
    time is the duration of its spans minus the time covered by their
    direct children; the program is single-threaded, so the children of a
    span never overlap.
    """
    inclusive = dict.fromkeys(set(INCLUSIVE.values()), 0.0)
    calls = dict.fromkeys(set(CALLS.values()), 0)
    self_s = dict.fromkeys(SELF_LAYERS, 0.0)
    counters = dict.fromkeys(COUNTERS, 0)
    for doc in docs:
        names, name_id, parent = doc["names"], doc["name_id"], doc["parent"]
        duration = [e - s for s, e in zip(doc["start"], doc["end"])]
        covered = [0.0] * len(duration)
        for idx, up in enumerate(parent):
            if up >= 0:
                covered[up] += duration[idx]
        for idx, nid in enumerate(name_id):
            name = names[nid]
            self_s[name.split(".", 1)[0]] += duration[idx] - covered[idx]
            if name in calls:
                calls[name] += 1
            if name in inclusive and not _nested_in_same(name_id, parent,
                                                         idx):
                inclusive[name] += duration[idx]
        for key in COUNTERS:
            if key == "series.peak_support":
                counters[key] = max(counters[key], doc["counters"][key])
            else:
                counters[key] += doc["counters"][key]
    out = {metric: inclusive[name] for metric, name in INCLUSIVE.items()}
    out.update({metric: calls[name] for metric, name in CALLS.items()})
    out.update(counters)
    out["identity.terms_useful_ratio"] = _ratio(
        counters["identity.terms_within_H"],
        counters["identity.terms_emitted"])
    out["simple.cone_key.reuse_ratio"] = 1.0 - _ratio(
        counters["simple.cone_key.distinct"], out["simple.cone_key.calls"]) \
        if out["simple.cone_key.calls"] else 0.0
    out.update({"%s.self_s" % layer: self_s[layer] for layer in SELF_LAYERS})
    return out


def _nested_in_same(name_id, parent, idx) -> bool:
    up = parent[idx]
    while up >= 0:
        if name_id[up] == name_id[idx]:
            return True
        up = parent[up]
    return False


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: spans.py OUT.json JOB -- <superdenom arguments>")
    sys.exit(run_job(sys.argv[1], sys.argv[2], sys.argv[4:]))
