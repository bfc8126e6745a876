"""Per-layer tracing, installed from outside the program.

Each traced function is replaced, in its defining module or class and in
every outerspace module that imported it by name, by a wrapper that
counts calls, errors by exception type, total and self time.  Self time
is a call's duration minus the time of the traced calls nested inside it,
so untraced helpers (``paths``, graph normalisation) count in their
caller.  Functions called at high frequency keep only those aggregates;
the rest also leave one span each, with the span that caused it, kept in
memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field


def _count_candidates(tracer, result, outermost):
    tracer.counts["lipschitz.candidates.count"] += len(result)


def _count_ball(tracer, result, outermost):
    tracer.counts["factor_complex.ball_handles"] += len(result.handles)


def _count_level_set(tracer, result, outermost):
    # reduce_to_minimal restarts itself from a shorter word when the
    # level-set closure finds one, and hands the inner result up, so each
    # decision's level set and final greedy chain are counted once, at the
    # outermost call.  A restart is one more shortening step; the greedy
    # steps taken before it are not visible from outside and are left out,
    # which whitehead.restarts makes show (by Whitehead's theorem the
    # greedy bottom is already of minimal length, so it stays 0).
    counts = tracer.counts
    if outermost:
        counts["whitehead.level_set_size"] += len(result.representatives)
        counts["whitehead.descent_steps"] += len(result.descent) - 1
    else:
        counts["whitehead.restarts"] += 1
        counts["whitehead.descent_steps"] += 1


@dataclass(frozen=True)
class Target:
    metric: str           # metric stem, "<layer>.<function>"
    module: str           # defining module under outerspace
    attr: str             # function name, or "Class.method"
    spans: bool = True    # False for high-frequency functions
    observe: object = None


TARGETS = (
    Target("lipschitz.stretch_factor", "lipschitz", "stretch_factor"),
    Target("lipschitz.candidates", "lipschitz", "candidates", False,
           _count_candidates),
    Target("lipschitz.optimal_map", "lipschitz", "optimal_map"),
    Target("simplex_lp.solve_lp_max", "simplex_lp", "solve_lp_max"),
    Target("folding.standard_geodesic", "folding", "standard_geodesic"),
    Target("folding.folding_path", "folding", "folding_path"),
    Target("folding.fold_step", "folding", "fold_step"),
    Target("folding.path_statistics", "folding", "path_statistics"),
    Target("marked_graph.subgraph_factors", "marked_graph",
           "MarkedMetricGraph.subgraph_factors"),
    Target("marked_graph.translation_length", "marked_graph",
           "MarkedMetricGraph.translation_length", False),
    Target("stallings.fold_labeled_graph", "stallings", "fold_labeled_graph",
           False),
    Target("stallings.canonical_code", "stallings", "canonical_code", False),
    Target("stallings.conjugate_into", "stallings", "conjugate_into", False),
    Target("factor_complex.project", "factor_complex", "project"),
    Target("factor_complex.build_ball", "factor_complex", "build_ball", True,
           _count_ball),
    Target("factor_complex.compute_adjacency", "factor_complex",
           "FactorBall.compute_adjacency"),
    Target("factor_complex.distance_upper", "factor_complex",
           "FactorBall.distance_upper", False),
    Target("factor_complex.check_reparam_quasigeodesic", "factor_complex",
           "check_reparam_quasigeodesic"),
    Target("whitehead.is_simple", "whitehead", "is_simple"),
    Target("whitehead.reduce_to_minimal", "whitehead", "reduce_to_minimal",
           True, _count_level_set),
    Target("whitehead.apply_whitehead", "whitehead", "apply_whitehead", False),
    Target("words.Automorphism.apply", "words", "Automorphism.apply", False),
    Target("traintrack.illegal_turn_count", "traintrack", "illegal_turn_count",
           False),
)

LAYERS = ("lipschitz", "simplex_lp", "folding", "marked_graph", "stallings",
          "factor_complex", "whitehead", "words", "traintrack")

DERIVED_COUNTS = ("lipschitz.candidates.count", "factor_complex.ball_handles",
                  "whitehead.level_set_size", "whitehead.descent_steps",
                  "whitehead.restarts")

# Work counts that must repeat exactly between two traced passes.
EXACT_COUNTS = ("folding.fold_step.calls",
                "factor_complex.distance_upper.calls",
                "whitehead.apply_whitehead.calls", "whitehead.level_set_size",
                "lipschitz.candidates.count", "factor_complex.ball_handles")


@dataclass
class FunctionStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: Counter = field(default_factory=Counter)


class Tracer:
    def __init__(self):
        self.stats = {t.metric: FunctionStats() for t in TARGETS}
        self.counts = Counter({name: 0 for name in DERIVED_COUNTS})
        self.spans = []           # (id, parent id, name, start, end, attrs)
        self.root_self_s = 0.0    # root time not inside any traced call
        self._stack = []          # open frames: [child time, span id, metric]
        self._patches = []
        self._next_id = 0

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    @contextmanager
    def root(self, name, **attrs):
        """A span around one unit of benchmark work, such as an instance."""
        self._next_id += 1
        frame = [0.0, self._next_id, name]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.root_self_s += end - start - frame[0]
            self.spans.append((frame[1], self._parent_span(), name, start, end,
                               attrs))

    def _wrap(self, target, fn):
        st = self.stats[target.metric]
        stack = self._stack
        clock = time.perf_counter
        name, spans, observe = target.metric, target.spans, target.observe

        def traced(*args, **kwargs):
            outermost = observe is None or all(f[2] != name for f in stack)
            if spans:
                self._next_id += 1
                parent = self._parent_span()
                frame = [0.0, self._next_id, name]
            else:
                frame = [0.0, None, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                st.errors[type(exc).__name__] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if spans:
                    self.spans.append((frame[1], parent, name, start, end,
                                       None))
            if observe is not None:
                observe(self, result, outermost)
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        """Patch every target; ``remove`` restores the originals."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "outerspace"
                                         or n.startswith("outerspace."))]
        for target in TARGETS:
            home = sys.modules[f"outerspace.{target.module}"]
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(target, original))
                continue
            original = getattr(home, target.attr)
            traced = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, traced)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self, wall_s):
        """Per-layer metrics: {name: (value, unit)}."""
        out = {}
        for target in TARGETS:
            st = self.stats[target.metric]
            out[f"{target.metric}.calls"] = (st.calls, "count")
            out[f"{target.metric}.self_s"] = (st.self_s, "s")
            out[f"{target.metric}.errors"] = (sum(st.errors.values()), "count")
        for name in DERIVED_COUNTS:
            out[name] = (self.counts[name], "count")
        durations = sorted(end - start
                           for _, _, name, start, end, _ in self.spans
                           if name == "lipschitz.optimal_map")
        out["lipschitz.optimal_map.tail_share"] = (
            sum(durations[-5:]) / sum(durations) if durations else 0.0,
            "ratio")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (sum(
                self.stats[t.metric].self_s for t in TARGETS
                if t.metric.split(".")[0] == layer), "s")
        out["instance.self_s"] = (self.root_self_s, "s")
        out["stallings.fold_labeled_graph.share"] = (
            self.stats["stallings.fold_labeled_graph"].self_s / wall_s
            if wall_s else 0.0, "ratio")
        return out

    def error_types(self):
        return {t.metric: dict(self.stats[t.metric].errors) for t in TARGETS
                if self.stats[t.metric].errors}

    def write_spans(self, path, origin):
        """Write spans as JSON lines, times in seconds from ``origin``."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                rec = {"id": sid, "parent": parent, "name": name,
                       "start": start - origin, "end": end - origin}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")
            for t in TARGETS:
                if not t.spans:
                    st = self.stats[t.metric]
                    fh.write(json.dumps({"aggregate": t.metric,
                                         "calls": st.calls,
                                         "total_s": st.total_s,
                                         "self_s": st.self_s}) + "\n")
