"""Spans around calls into the package, recorded from outside it.

The traced run replaces public functions at the names their callers look them
up under (for example ``nnasolve.nna.spmv``, the name the solve loop calls)
with wrappers that open a span.  A span has a name, a start, an end and a
parent.  Self time is a span's duration minus the time its child spans cover.

The solve loops make about a million kernel calls per run, so leaf spans are
not stored one by one: each closed span is folded into per-(parent name, name)
aggregates of count, total and self time, and only spans that had children
(solves, set-up steps) are kept as individual records.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import namedtuple
from contextlib import contextmanager

# (module, attribute, span name): every name the workloads' call paths look up.
PATCHES = (
    ("nnasolve.nna", "spmv", "sparse.spmv"),
    ("nnasolve.nna", "spmv_transpose", "sparse.spmv_transpose"),
    ("nnasolve.nna", "shift", "nna.shift"),
    ("nnasolve.nna", "rescale", "nna.rescale"),
    ("nnasolve.metrics", "kl_divergence", "metrics.kl_divergence"),
    ("nnasolve.embedding", "spmv", "sparse.spmv"),
    ("nnasolve.embedding", "embed", "embedding.embed"),
    ("nnasolve.embedding", "from_arrays", "sparse.from_arrays"),
    ("nnasolve.embedding", "nna_solve", "nna.nna_solve"),
    ("nnasolve.baselines", "spmv", "sparse.spmv"),
    ("nnasolve.baselines", "arnoldi_process", "baselines.arnoldi_process"),
    ("nnasolve.problems", "from_arrays", "sparse.from_arrays"),
)

KERNELS = ("sparse.spmv", "sparse.spmv_transpose")

# A stored span; descendants counts every span closed beneath it, by name.
Span = namedtuple("Span", "id name start_ns end_ns parent descendants")


class NullTracer:
    """Untraced mode: wrap returns the function itself, so nothing is added."""

    def wrap(self, name, fn):
        return fn

    @contextmanager
    def patched(self):
        yield


class Tracer:
    """Span recorder.  Frames are lists [name, start_ns, child_ns, counts, id]."""

    def __init__(self):
        self._next_id = 1
        self._stack = [["run", time.perf_counter_ns(), 0, None, 0]]
        self.stats = {}  # (parent name, name) -> [count, total_ns, self_ns]
        self.spans = []  # Span records of the spans that had children
        self.flops = 0  # computed: 2 * nnz per kernel product
        self.bytes = 0  # computed: CSC arrays + input + output vector per product
        self.touched = {}  # id(array) -> bytes of each array the kernels read, for the working set
        self._sizes = {}  # id(matrix) -> (matrix, flops, bytes) per product, cleared with touched

    def wrap(self, name, fn):
        clock = time.perf_counter_ns
        stack = self._stack
        close = self._close
        meter = self._meter if name in KERNELS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if meter is not None:
                meter(args[0])
            frame = [name, 0, 0, None, None]
            stack.append(frame)
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(frame, end)

        return traced

    def _frame_id(self, frame):
        if frame[4] is None:
            frame[4] = self._next_id
            self._next_id += 1
        return frame[4]

    def _close(self, frame, end):
        name, start, child_ns, counts, _ = frame
        duration = end - start
        parent = self._stack[-1]
        parent[2] += duration
        key = (parent[0], name)
        agg = self.stats.get(key)
        if agg is None:
            agg = self.stats[key] = [0, 0, 0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_ns
        up = parent[3]
        if up is None:
            up = parent[3] = {}
        up[name] = up.get(name, 0) + 1
        if counts is not None:
            for k, v in counts.items():
                up[k] = up.get(k, 0) + v
            self.spans.append(Span(self._frame_id(frame), name, start, end, self._frame_id(parent), counts))

    def _meter(self, A):
        sizes = self._sizes.get(id(A))
        if sizes is None or sizes[0] is not A:
            arrays = (A.col_ptr, A.row_idx, A.values)
            vectors = 8 * (A.nrows + A.ncols)  # one input and one output vector
            sizes = self._sizes[id(A)] = (A, 2 * A.nnz, sum(a.nbytes for a in arrays) + vectors)
            for a in arrays:
                self.touched[id(a)] = a.nbytes
            self.touched[id(A)] = vectors
        self.flops += sizes[1]
        self.bytes += sizes[2]

    def take_working_set(self) -> int:
        """Computed bytes of the distinct arrays (plus vectors) the kernels touched since the last call."""
        total = sum(self.touched.values())
        self.touched.clear()
        self._sizes.clear()
        return total

    def last_span(self, name):
        """The most recently closed span record with this name."""
        for span in reversed(self.spans):
            if span.name == name:
                return span
        raise KeyError(name)

    def totals(self, name):
        """(count, total seconds, self seconds) of every span with this name, over all parents."""
        count = total = own = 0
        for (_, n), (c, t, s) in self.stats.items():
            if n == name:
                count += c
                total += t
                own += s
        return count, total / 1e9, own / 1e9

    @contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block, then restore the originals."""
        saved = []
        try:
            for module_name, attr, span in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self):
        """JSON-ready aggregates and span records."""
        return {
            "aggregates": [
                {"parent": p, "name": n, "count": c, "total_s": t / 1e9, "self_s": s / 1e9}
                for (p, n), (c, t, s) in sorted(self.stats.items())
            ],
            "spans": [span._asdict() for span in self.spans],
        }
