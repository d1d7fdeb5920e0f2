"""Span tracing of cellkit's layers, installed from outside the package.

The tracer swaps module attributes (and two methods) that cellkit looks up
at call time for thin wrappers. Because modules import names from one
another (theorems does `from .setops import product`), every cellkit
module namespace holding the original function object gets the wrapper,
so the package's own internal calls are traced, not only the public entry
point. Spans stay in memory; self time (a span's duration minus the time
covered by its child spans) is accumulated online so that memory does not
grow with the number of calls, and a bounded prefix of the raw spans is
kept for the trace file written at the end of the run.

A name listed here that the package no longer defines is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name). "Class.method" attributes patch the class.
SPANS = (
    ("groups", "build_group", "groups.build_group"),
    ("groups", "ElementSet.spec_string", "groups.spec_string"),
    ("groups", "is_subgroup", "groups.is_subgroup"),
    ("groups", "all_subgroups", "groups.all_subgroups"),
    ("setops", "product", "setops.product"),
    ("setops", "left_stabilizer", "setops.left_stabilizer"),
    ("cells", "left_translate_masks", "cells.left_translate_masks"),
    ("cells", "is_cell", "cells.is_cell"),
    ("cells", "enumerate_cells", "cells.enumerate_cells"),
    ("cells", "balandraud_details", "cells.balandraud_details"),
    ("cells", "kernel_chain", "cells.kernel_chain"),
    ("cells", "kernels_at", "cells.kernels_at"),
    ("cells", "make_record", "cells.make_record"),
    ("theorems", "check_kneser", "theorems.check_kneser"),
    ("theorems", "check_olson", "theorems.check_olson"),
    ("theorems", "check_cell_intersection", "theorems.check_cell_intersection"),
    ("theorems", "check_theorem_subgroup_kernels", "theorems.check_theorem_subgroup_kernels"),
    ("theorems", "check_corollary_kernel_structure", "theorems.check_corollary_kernel_structure"),
    ("theorems", "check_dichotomy", "theorems.check_dichotomy"),
    ("theorems", "run_sweep", "theorems.run_sweep"),
    ("specs", "parse_subset_spec", "specs.parse_subset_spec"),
    ("cache", "DiskCache.get_or_compute", "cache.get_or_compute"),
    ("cli", "main", "cli.main"),
    ("cli", "_emit_jsonl", "cli.emit"),
)

# Wrapped for their counters only: no span, so their time stays with the caller.
COUNTERS = (
    ("cells", "_full_cell_enumeration", "cells.full_sweeps"),
    ("theorems", "_s_space", "specs.s_space.items"),
)

CHECKERS = {
    "theorems.check_kneser", "theorems.check_olson", "theorems.check_cell_intersection",
    "theorems.check_theorem_subgroup_kernels", "theorems.check_corollary_kernel_structure",
    "theorems.check_dichotomy",
}

PASS_SPAN = "bench.pass"


class Tracer:
    """Online span accounting plus a bounded in-memory span log."""

    def __init__(self, workload: str, keep_spans: int = 100_000) -> None:
        self.workload = workload
        self.keep_spans = keep_spans
        self.active = False
        self.pass_no = -1
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.spans_total = 0
        self.next_id = 0
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        # a forked pool worker inherits the patched modules; its spans could
        # not be collected, so it runs the wrappers inactive
        os.register_at_fork(after_in_child=self._deactivate)

    def _deactivate(self) -> None:
        self.active = False

    # -- span bookkeeping --------------------------------------------------

    def enter(self, name: str) -> None:
        sid = self.next_id
        self.next_id = sid + 1
        parent = self.stack[-1][3] if self.stack else -1
        self.stack.append([name, time.perf_counter(), 0.0, sid, parent])

    def leave(self) -> None:
        end = time.perf_counter()
        name, start, child, sid, parent = self.stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += dur
        self.spans_total += 1
        if len(self.spans) < self.keep_spans:
            self.spans.append((sid, name, start, end, parent, self.pass_no))

    def begin_pass(self, pass_no: int) -> None:
        self.pass_no = pass_no
        self.active = True
        self.enter(PASS_SPAN)

    def end_pass(self) -> None:
        self.leave()
        self.active = False

    # -- installation ------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        tracer = self
        if name == "theorems.run_sweep":
            def after(result):
                tracer.counters["theorems.instances"] += result.summary["instances"]
        elif name == "theorems.check_corollary_kernel_structure":
            def after(result):
                tracer.counters["theorems.scalar_checked"] += len(result)
        elif name in CHECKERS:
            def after(result):
                tracer.counters["theorems.scalar_checked"] += 1
        else:
            after = None

        if name == "cache.get_or_compute":
            @functools.wraps(fn)
            def cache_wrapper(cache, *args, **kwargs):
                if not tracer.active:
                    return fn(cache, *args, **kwargs)
                hits, misses = cache.hits, cache.misses
                tracer.enter(name)
                try:
                    return fn(cache, *args, **kwargs)
                finally:
                    tracer.leave()
                    tracer.counters["cache.hits"] += cache.hits - hits
                    tracer.counters["cache.misses"] += cache.misses - misses
            return cache_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave()
            if after is not None:
                after(result)
            return result
        return wrapper

    def _counter_wrapper(self, name: str, fn):
        tracer = self
        if name == "cells.full_sweeps":
            @functools.wraps(fn)
            def wrapper(g, s_bits, *args, **kwargs):
                if not tracer.active:
                    return fn(g, s_bits, *args, **kwargs)
                memo = getattr(g, "_enum_memo", None)
                memoized = memo is not None and s_bits in memo
                result = fn(g, s_bits, *args, **kwargs)
                if not memoized:
                    tracer.counters["cells.full_sweeps"] += 1
                    tracer.counters["cells.candidates_swept"] += 1 << g.order
                return result
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active and hasattr(result, "__len__"):
                tracer.counters[name] += len(result)
            return result
        return wrapper

    def install(self, package) -> None:
        """Patch every cellkit namespace that holds a traced function."""
        self.absent = []
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]
        for table, make in ((SPANS, self._span_wrapper), (COUNTERS, self._counter_wrapper)):
            for entry in table:
                mod_name, attr, name = entry
                module = sys.modules.get(f"{package.__name__}.{mod_name}")
                owner, _, member = attr.rpartition(".")
                holder = getattr(module, owner, None) if owner else module
                original = getattr(holder, member, None) if holder is not None else None
                if original is None or not callable(original):
                    self.absent.append(f"{mod_name}.{attr}")
                    continue
                wrapper = make(name, original)
                if owner:
                    self._patch(holder, member, original, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, holder, key: str, original, wrapper) -> None:
        self._restore.append((holder, key, original))
        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def self_total(self) -> float:
        """Sum of the self time of every span, the pass root included."""
        return sum(self.self_s.values())

    def write(self, path: Path) -> None:
        """Write the kept spans as JSON lines, one object per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"workload": self.workload, "spans_total": self.spans_total,
                                 "spans_kept": len(self.spans), "absent": self.absent}) + "\n")
            for sid, name, start, end, parent, pass_no in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "workload": self.workload,
                                     "pass": pass_no}) + "\n")
