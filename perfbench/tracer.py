"""Outside-in span recorder for the schubert_galois layers.

The recorder wraps the public functions of each layer from outside the
package; the package source is not touched.  A function that another
module bound with ``from ... import`` lives under several names (for
example ``pieri.track_all`` and ``monodromy.track_all`` are the same
object as ``tracker.track_all``), so every binding of the function in
every module of the package is replaced, not just the defining one.
Methods are wrapped on their class.

Spans (name, start, end, parent) and per-call counts are kept in memory.
``layer_metrics`` turns them into the per-layer numbers and ``check_spans``
proves that the wraps saw every call they had to see.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time
from dataclasses import dataclass, field

import schubert_galois as sg
from schubert_galois import schubert

# CPU time of this process.  The pipeline is single-threaded with BLAS
# pinned to one thread, so on an idle host this equals wall time; unlike
# wall time it leaves out time the host hands to other tenants.
clock = time.process_time


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _matrices(stacks, rows=1):
    return math.prod(stacks.shape[:-2]) * rows


def _path_counts(args, kwargs, results):
    return {
        "paths": len(_arg(args, kwargs, 1, "starts")),
        "steps": sum(r.steps for r in results),
        "failed": sum(not r.success for r in results),
    }


# (layer, attribute, counter): the layer is the module that defines the
# attribute; counter(args, kwargs, result) -> dict.  A dotted attribute is
# a method, wrapped on its class.
TARGETS = (
    ("linalg", "batched_det",
     lambda a, k, r: {"matrices": _matrices(_arg(a, k, 0, "stacks"))}),
    ("linalg", "batched_rows_cofactors",
     lambda a, k, r: {"matrices": _matrices(_arg(a, k, 0, "stacks"),
                                            len(_arg(a, k, 1, "rows")))}),
    ("schubert", "StackedSystem.values_and_jacobian_many",
     lambda a, k, r: {"points": len(_arg(a, k, 1, "xs"))}),
    ("schubert", "StackedSystem.values_many",
     lambda a, k, r: {"points": len(_arg(a, k, 1, "xs"))}),
    ("tracker", "track_many", _path_counts),
    ("tracker", "track_all", lambda a, k, r: {"starts": len(_arg(a, k, 1, "starts"))}),
    ("tracker", "refine_many", None),
    ("pieri", "solve_master", None),
    ("pieri", "verify_master", None),
    ("monodromy", "make_loop", None),
    ("monodromy", "monodromy_permutation",
     lambda a, k, r: {"legs": len(_arg(a, k, 1, "loop").legs)}),
    ("monodromy", "accumulate", None),
    ("groups", "is_full_symmetric", None),
)


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    start: float
    end: float = math.nan
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans while installed; single-threaded, like the package."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _wrap(self, layer, name, fn, counter):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, layer, self._open[-1] if self._open else None,
                        clock())
            self.spans.append(span)
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._open.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == sg.__name__ or n.startswith(sg.__name__ + ".")]
        undo = []
        try:
            for layer, attr, counter in TARGETS:
                owner = getattr(sg, layer)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner, attr = getattr(owner, cls_name), meth
                    bindings = [owner]
                else:
                    bindings = modules
                fn = getattr(owner, attr)
                wrapper = self._wrap(layer, f"{layer}.{attr}", fn, counter)
                for mod in bindings:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, fn))
            yield self
        finally:
            for mod, key, fn in reversed(undo):
                setattr(mod, key, fn)


# ------------------------------------------------------------------ analysis


def _children(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    return kids


def _descendants(kids, i):
    stack = list(kids[i])
    while stack:
        j = stack.pop()
        yield j
        stack.extend(kids[j])


def _ancestors(spans, i):
    j = spans[i].parent
    while j is not None:
        yield j
        j = spans[j].parent


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer busy time, self time and counts, as {name: (value, unit)}.

    A span's self time is its duration minus its direct children; the
    self times of all spans partition the traced time, so a layer's
    self time is the sum over its spans.
    """
    kids = _children(spans)
    self_s = [s.duration - sum(spans[c].duration for c in kids[i])
              for i, s in enumerate(spans)]

    def named(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def dur(name):
        return sum(spans[i].duration for i in named(name))

    def excl(name):
        return sum(self_s[i] for i in named(name))

    def count(name, key):
        return sum(spans[i].counts.get(key, 0) for i in named(name))

    def layer_self(layer):
        return sum(self_s[i] for i, s in enumerate(spans) if s.layer == layer)

    def ratio(a, b):
        return a / b if b else 0.0

    evals = ("schubert.values_and_jacobian_many", "schubert.values_many")
    eval_s = sum(dur(n) for n in evals)
    eval_calls = sum(len(named(n)) for n in evals)
    eval_points = sum(count(n, "points") for n in evals)

    outer_tracker = [i for i, s in enumerate(spans) if s.layer == "tracker"
                     and all(spans[j].layer != "tracker" for j in _ancestors(spans, i))]
    paths = count("tracker.track_many", "paths")
    steps = count("tracker.track_many", "steps")
    retrack = 0
    for i in named("tracker.track_all"):
        calls = [c for c in kids[i] if spans[c].name == "tracker.track_many"]
        retrack += sum(spans[c].counts.get("paths", 0) for c in calls[1:])

    solve_track_alls = [j for i in named("pieri.solve_master") for j in _descendants(kids, i)
                        if spans[j].name == "tracker.track_all"]
    loops = named("monodromy.monodromy_permutation")
    legs = count("monodromy.monodromy_permutation", "legs")
    legs_tracked = sum(1 for i in loops for j in _descendants(kids, i)
                       if spans[j].name == "tracker.track_all")

    m = {
        "linalg.cofactor_s": (dur("linalg.batched_rows_cofactors"), "s"),
        "linalg.cofactor_matrices": (count("linalg.batched_rows_cofactors", "matrices"), "count"),
        "linalg.det_s": (dur("linalg.batched_det"), "s"),
        "linalg.det_matrices": (count("linalg.batched_det", "matrices"), "count"),
        "schubert.eval_s": (eval_s, "s"),
        "schubert.eval_self_s": (sum(excl(n) for n in evals), "s"),
        "schubert.eval_calls": (eval_calls, "count"),
        "schubert.eval_points": (eval_points, "count"),
        "schubert.us_per_point": (1e6 * ratio(eval_s, eval_points), "us"),
        "tracker.track_s": (sum(spans[i].duration for i in outer_tracker), "s"),
        "tracker.self_s": (layer_self("tracker"), "s"),
        "tracker.paths": (paths, "count"),
        "tracker.accepted_steps": (steps, "count"),
        "tracker.points_per_eval": (ratio(eval_points, eval_calls), "points"),
        "tracker.evals_per_step": (ratio(eval_points, steps), "points"),
        "tracker.failed_path_ratio": (ratio(count("tracker.track_many", "failed"), paths), "ratio"),
        "tracker.retrack_paths": (retrack, "count"),
        "tracker.track_all_self_s": (excl("tracker.track_all"), "s"),
        "pieri.solve_s": (dur("pieri.solve_master"), "s"),
        "pieri.self_s": (layer_self("pieri"), "s"),
        "pieri.nodes": (len(solve_track_alls), "count"),
        "pieri.paths": (sum(spans[j].counts.get("starts", 0) for j in solve_track_alls),
                        "count"),
        "pieri.verify_s": (dur("pieri.verify_master"), "s"),
        "monodromy.loop_s": (ratio(dur("monodromy.monodromy_permutation"), len(loops)), "s"),
        "monodromy.loops": (len(loops), "count"),
        "monodromy.leg_attempt_ratio": (ratio(legs_tracked, legs), "ratio"),
        "monodromy.match_self_s": (excl("monodromy.monodromy_permutation"), "s"),
        "monodromy.self_s": (layer_self("monodromy"), "s"),
        "groups.certify_s": (dur("groups.is_full_symmetric"), "s"),
        "groups.calls": (len(named("groups.is_full_symmetric")), "count"),
    }
    return m


def expected_first_pass(problem) -> tuple[int, int]:
    """(non-base nodes, first-pass paths) of the Pieri recursion, from counts.

    The recursion visits each distinct partition nu reachable from mu
    through children with a non-zero count once; a node with moving
    conditions tracks one path per solution of each such child.
    """
    q = problem.q
    seen, stack = set(), [problem.mu]
    nodes = paths = 0
    while stack:
        nu = stack.pop()
        if nu in seen:
            continue
        seen.add(nu)
        sub = problem.with_mu(nu)
        if sub.num_moving == 0:
            continue
        live = [c for c in schubert.children(nu, q)
                if sg.count_solutions(problem.with_mu(c)) > 0]
        nodes += 1
        paths += sum(sg.count_solutions(problem.with_mu(c)) for c in live)
        stack.extend(live)
    return nodes, paths


def check_spans(spans, problem, d: int, first: int = 0, looped: bool = True) -> list[str]:
    """Prove the wraps missed nothing on the pipeline run traced from
    spans[first] on; looped says whether it ran monodromy loops."""
    issues = []
    kids = _children(spans)
    nodes, paths = expected_first_pass(problem)
    solves = [i for i in range(first, len(spans)) if spans[i].name == "pieri.solve_master"]
    if not solves:
        issues.append("no solve_master span")
    for i in solves:
        calls = [j for j in sorted(_descendants(kids, i))
                 if spans[j].name == "tracker.track_all"]
        first_pass = sum(spans[j].counts["starts"] for j in calls[:nodes])
        if len(calls) < nodes or first_pass != paths:
            issues.append(f"solve_master: {len(calls)} track_all calls with {first_pass} "
                          f"first-pass paths, expected {nodes} nodes and {paths} paths")
    loops = [i for i in range(first, len(spans))
             if spans[i].name == "monodromy.monodromy_permutation"]
    if looped != bool(loops):
        issues.append(f"{len(loops)} monodromy_permutation spans, looped={looped}")
    for i in loops:
        calls = [j for j in _descendants(kids, i) if spans[j].name == "tracker.track_all"]
        starts = {spans[j].counts["starts"] for j in calls}
        if len(calls) < spans[i].counts["legs"] or starts != {d}:
            issues.append(f"monodromy_permutation: {len(calls)} legs tracked with "
                          f"start counts {sorted(starts)}, expected d={d}")
    return issues
