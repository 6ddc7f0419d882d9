"""
Per-layer tracing from outside the program.

Tracer.install wraps each traced public function under every name its
callers look it up by: a function bound by `from ... import` is looked up in
the caller's module, so every lorenzlinks module that holds the same object
gets the wrapper.  Each call keeps a span (name, start, end, parent) in
memory; nothing is written until the run ends.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from pathlib import Path

# module -> traced public functions; "Class.method" names a method.
TRACED = {
    "lorenz": ("parse_vector", "normalize", "lorenz_permutation", "lorenz_braid_word",
               "dual_vector", "tm_triple", "minimal_braid_word", "milestone_words"),
    "braid": ("permutation_braid_word",),
    "tlink": ("tbraid_word",),
    "garside": ("normal_form", "multiply", "nf_power", "left_slide", "meet",
                "right_complement"),
    "torus": ("is_torus",),
    "invariants": ("invariant_report", "burau_alexander", "morton_alexander"),
    "laurent": ("LaurentPoly.mul", "LaurentPoly.exact_div"),
    "census": ("load_census", "report"),
    "cli": ("main",),
}
_METHOD_ATTR = {"mul": "__mul__"}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
ITEM = len(SPAN_NAMES)  # the span the benchmark opens around each item
SPAN_NAMES.append("item")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = array("H")
        self.parents = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [-1]
        self.constructions = 0  # braid.Permutation objects built
        self.slides = 0  # garside.left_slide calls that moved letters
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, index: int, fn, on_result=None):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack)
        now = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = len(names)
            names.append(index)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(span)
            starts[span] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = now()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def call_item(self, fn, *args):
        """Run one item of the workload inside its own root span."""
        return self._span(ITEM, fn)(*args)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [self.package] + [
            m for name, m in sys.modules.items()
            if name.startswith(self.package.__name__ + ".")]
        index = 0
        for mod, fns in TRACED.items():
            home = sys.modules[f"{self.package.__name__}.{mod}"]
            for fn in fns:
                on_result = self._count_slide if fn == "left_slide" else None
                if "." in fn:
                    cls_name, method = fn.split(".")
                    cls = getattr(home, cls_name)
                    attr = _METHOD_ATTR.get(method, method)
                    self._patch(cls, attr, self._span(index, cls.__dict__[attr]))
                else:
                    original = getattr(home, fn)
                    wrapper = self._span(index, original, on_result)
                    for m in modules:
                        if m.__dict__.get(fn) is original:
                            self._patch(m, fn, wrapper)
                index += 1
        perm = self.package.braid.Permutation
        init = perm.__init__

        def counted_init(obj, *args, **kwargs):
            self.constructions += 1
            init(obj, *args, **kwargs)

        self._patch(perm, "__init__", counted_init)

    def _count_slide(self, result) -> None:
        if result is not None:
            self.slides += 1

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def self_times(self, first: int, last: int) -> tuple[list[int], list[int]]:
        """Calls and self nanoseconds per span name over spans[first:last]."""
        calls = [0] * len(SPAN_NAMES)
        own = [0] * len(SPAN_NAMES)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        for span in range(first, last):
            duration = ends[span] - starts[span]
            calls[names[span]] += 1
            own[names[span]] += duration
            parent = parents[span]
            if parent >= 0:
                own[names[parent]] -= duration
        return calls, own

    def write(self, path: Path) -> None:
        """All spans, gzipped, as tab-separated name, start_ns, end_ns and
        parent (the parent's line number from 0, or -1)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart_ns\tend_ns\tparent\n")
            for name, start, end, parent in zip(
                    self.names, self.starts, self.ends, self.parents):
                out.write(f"{SPAN_NAMES[name]}\t{start}\t{end}\t{parent}\n")
