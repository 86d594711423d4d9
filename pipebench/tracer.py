"""In-memory span tracer that wraps cutcover's public functions from outside.

The package's modules reach each other's functions through module globals
(``from .family import residual``) and reach the kernels through attributes
of the ``cutcover.kernels`` package, both looked up at call time. Rebinding
every such name to a timing wrapper therefore sees every call without a
change to the package source.

A span records its name, its parent span, its start and its end. Self time
is a span's duration minus the durations of its direct children (calls run
on one thread, so children never overlap). Counters are read from return
values only.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import defaultdict

#: modules whose public functions get a span, by their short name
TRACED_MODULES = ("kernels", "graph", "gen", "family", "pd", "certify", "exact", "cli")

#: per-element predicates: `covers` alone runs about 270,000 times in one
#: acceptance batch, so a span per call would cost more than the call and
#: hold that many spans in memory; their time stays in the caller's self time
UNTRACED = frozenset({"graph.covers", "graph.crosses", "graph.cut_capacity", "graph.delta_links"})

#: private functions that also get a span: the batch summary of `cutcover bench`
TRACED_PRIVATE = frozenset({"cli._summarize"})

#: span groups whose share of the traced wall time the workloads are chosen by
GROUPS = {
    "cut_table": (
        "graph.nontrivial_cut_values",
        "graph.incremental_cut_scan",
        "kernels.gray_cut_values",
        "graph.enumerate_small_cuts",
        "kernels.small_cut_masks",
    ),
    "solve_audit_exact": (
        "kernels.minimal_flags",
        "pd.*",
        "certify.*",
        "exact.*",
        "family.residual",
        "family.cores",
    ),
    "family_checks": (
        "family.check_*",
        "family.cores",
        "kernels.minimal_flags",
        "kernels.pliable_violation",
        "kernels.structsub_violation",
        "kernels.sparse_crossing_violation",
        "kernels.gamma_star_exhaustive",
    ),
}


def _in_group(name: str, patterns) -> bool:
    return any(name.startswith(p[:-1]) if p.endswith("*") else name == p for p in patterns)


def _count_exact(counters, result):
    counters["exact.nodes"] += result.nodes_explored
    counters["exact.root_closed"] += result.nodes_explored == 1


def _count_solve(counters, result):
    counters["pd.phases"] += len(result.trace)


def _count_audits(counters, reports):
    counters["certify.phase_audits"] += len(reports)
    counters["certify.lstar_nonzero"] += sum(1 for r in reports if r.lstar_size > 0)


def _count_gamma_star(counters, report):
    counters["family.gamma_star.tuples"] += report.tuples_tested or 0
    counters["family.gamma_star.exhaustive"] += bool(report.exhaustive)


#: span name -> reader of the work counters carried by the return value
COUNTER_HOOKS = {
    "exact.exact_optimum": _count_exact,
    "pd.solve": _count_solve,
    "certify.audit_run": _count_audits,
    "family.check_gamma_star": _count_gamma_star,
}

COUNTERS = (
    "exact.nodes",
    "exact.root_closed",
    "pd.phases",
    "certify.phase_audits",
    "certify.lstar_nonzero",
    "family.gamma_star.tuples",
    "family.gamma_star.exhaustive",
)


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.counters = defaultdict(int)
        self._stack = [-1]

    def span(self, name: str, fn, hook=None):
        """Wrap fn so that each call records one span named `name`."""
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            stack.append(idx)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Rebind every public function of the traced modules, in every
        traced module and in the package namespace."""
        wrapped = {}
        namespaces = [package]
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"{package.__name__}.{short}")
            namespaces.append(mod)
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if not isinstance(obj, types.FunctionType) or name in UNTRACED or id(obj) in wrapped:
                    continue
                if attr.startswith("_") and name not in TRACED_PRIVATE:
                    continue
                # kernels re-export backend functions defined in submodules
                if short != "kernels" and obj.__module__ != mod.__name__:
                    continue
                wrapped[id(obj)] = self.span(name, obj, COUNTER_HOOKS.get(name))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    setattr(ns, attr, wrapped[id(obj)])

    def summary(self, wall_s: float) -> dict:
        """Per-name calls, total and self seconds; root-span coverage of
        wall_s; group shares; and counters, including threshold scans."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        per = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        root_s = 0.0
        scans = 0
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            row = per[self.names[i]]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
            p = self.parents[i]
            if p < 0:
                root_s += dur
            elif self.names[i] == "graph.nontrivial_cut_values" and self.names[p] == "gen.gen_instance":
                scans += 1
        counters = {k: self.counters.get(k, 0) for k in COUNTERS}
        counters["gen.threshold_scans"] = scans
        shares = {
            group: sum(r["self_s"] for name, r in per.items() if _in_group(name, pats)) / wall_s
            for group, pats in GROUPS.items()
        }
        return {
            "spans": n,
            "wall_s": wall_s,
            "coverage": root_s / wall_s,
            "per_span": dict(per),
            "counters": counters,
            "shares": shares,
        }

    def dump(self, path) -> None:
        """Write every span as one JSON line: index, name, parent index, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([i, name, self.parents[i], self.starts[i], self.ends[i]]) + "\n")
