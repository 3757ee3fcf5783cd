"""In-memory span recorder for the traced benchmark run.

A span is (id, parent id, name, layer, start, end), with start and end read
from time.perf_counter.  Spans are recorded around calls into each heisquat
module by replacing a function where its caller looks it up, so no program
file changes.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import time
from collections import defaultdict

# (module, attribute, layer): the lookup sites of each layer's public calls.
# The lattice kernels are wrapped in counting's namespace because that is
# where the scan looks them up; counting imports mat_frac_inverse from
# lattices at call time.  quaternion is not wrapped: its operators are called
# millions of times and wrappers would dominate the traced time.
WRAP_SITES = (
    ("heisquat.cli", "builtin_order", "orders"),
    ("heisquat.counting", "enumerate_by_norm", "orders"),
    ("heisquat.counting", "hnf", "lattices"),
    ("heisquat.counting", "kernel_basis", "lattices"),
    ("heisquat.counting", "solve_integer", "lattices"),
    ("heisquat.counting", "det_int", "lattices"),
    ("heisquat.counting", "adjugate", "lattices"),
    ("heisquat.counting", "mat_mul", "lattices"),
    ("heisquat.lattices", "mat_frac_inverse", "lattices"),
    ("heisquat.counting", "FundamentalDomain", "heisenberg"),
    ("heisquat.counting", "count_table", "counting"),
    ("heisquat.counting", "scan_summary", "counting"),
    ("heisquat.counting", "psi_count", "counting"),
    ("heisquat.counting", "brute_force_psi", "counting"),
    ("heisquat.hyperbolic", "geom_selftest", "hyperbolic"),
    ("heisquat.hyperbolic", "dist", "hyperbolic"),
    ("heisquat.hyperbolic", "busemann", "hyperbolic"),
    ("heisquat.constants", "constants_report", "constants"),
    ("heisquat.constants", "zeta_and_integrals", "constants"),
    ("heisquat.constants", "mertens_constant", "constants"),
)

FIELDS = ("pid", "id", "parent", "name", "layer", "start", "end")
LAYERS = ("setup", "cli", "orders", "lattices", "heisenberg", "counting",
          "hyperbolic", "constants")


class Tracer:
    """Spans of one process, kept in memory until dump()."""

    def __init__(self):
        self.spans = []          # (id, parent, name, layer, start, end)
        self._stack = []
        self._ids = itertools.count(1)

    def record(self, name, layer, start, end):
        """A root span measured by the caller."""
        self.spans.append((next(self._ids), None, name, layer, start, end))

    def call(self, name, layer, fn, *args, **kwargs):
        """Run fn inside a span; return (result, seconds)."""
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs), time.perf_counter() - start
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, layer, start, end))

    def wrap(self, fn, name, layer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, *args, **kwargs)[0]
        return traced

    def install(self):
        """Replace every function in WRAP_SITES by a span-recording wrapper."""
        for module, attr, layer in WRAP_SITES:
            mod = importlib.import_module(module)
            short = module.rsplit(".", 1)[1]
            setattr(mod, attr, self.wrap(getattr(mod, attr), f"{short}.{attr}", layer))

    def rows(self):
        """Spans as FIELDS rows; ids are unique within one process."""
        pid = os.getpid()
        return [[pid, *span] for span in self.spans]

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows():
                fh.write(json.dumps(row) + "\n")


def load(path):
    """Rows written by Tracer.dump."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(rows):
    """Seconds per layer: each span's duration minus its children's."""
    covered = defaultdict(float)
    for pid, _, parent, _, _, start, end in rows:
        if parent is not None:
            covered[(pid, parent)] += end - start
    out = dict.fromkeys(LAYERS, 0.0)
    for pid, sid, _, _, layer, start, end in rows:
        out[layer] += end - start - covered[(pid, sid)]
    return out
