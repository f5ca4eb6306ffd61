"""Embedding of arbitrary-sign systems into nonnegative ones.

For each column of A holding a negative entry, one slack variable and one
tie equation x_j + x_slack = 0 are appended, giving a nonnegative block
system

    P = [[A_plus, A_minus_cols],    c = [b]
         [D,      I_J         ]]        [0]

with exactly nnz(A) + 2 J stored entries.  Any solution of P y = c restricts
to a solution of A x = b in its first m2 components.  A_minus_cols, the tie
block T, maps residuals back: A x - b = r[:m1] - T r[m1:] for r = P y - c.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch
from .nna import _AA_WINDOW, SolveReport, SolverConfig, _solve
from .nna import nna_solve  # noqa: F401  unused here, but perfbench/tracer.py patches this name
from .sparse import SparseMatrix, _from_canonical, as_vector
from .sparse import from_arrays, spmv  # noqa: F401  unused here, but perfbench/tracer.py patches these names

__all__ = ["EmbeddedSystem", "consistency_defect", "embed", "extract", "general_solve"]


@dataclass
class EmbeddedSystem:
    """The nonnegative system P y = c plus the bookkeeping to undo it.

    neg_cols lists (sorted) the original columns that contained a negative
    entry; J = len(neg_cols).  P is (m1 + J) x (m2 + J).  tie is the m1 x J
    top block of P's slack columns (A's negated negative entries), None when
    J = 0.
    """

    P: SparseMatrix
    c: np.ndarray
    neg_cols: np.ndarray
    J: int
    m1: int
    m2: int
    tie: SparseMatrix | None = None


def embed(A: SparseMatrix, b) -> EmbeddedSystem:
    """Build the minimal nonnegative embedding of (A, b).

    Only columns that actually contain a negative entry get a slack column;
    a nonnegative A comes back untouched (P is A, c is b, J = 0).
    """
    b = as_vector(b, "b", A.nrows)
    m1, m2 = A.nrows, A.ncols
    # read in place: every array built from them below is a fresh copy
    rows, cols, vals = A.row_idx, A.entry_col, A.values
    neg = vals < 0.0
    neg_cols = np.unique(cols[neg])
    J = int(neg_cols.size)
    if J == 0:
        return EmbeddedSystem(P=A, c=b.copy(), neg_cols=neg_cols, J=0, m1=m1, m2=m2)

    slack = np.searchsorted(neg_cols, cols[neg])  # dense index of each negative's column
    arange_j = np.arange(J, dtype=np.int64)
    p_cols = np.concatenate([cols[~neg], m2 + slack, neg_cols, m2 + arange_j])
    # each run is column-major and, within any column, a run with larger rows
    # comes later, so a stable sort by column alone is P's canonical order,
    # and from_arrays does not sort again
    order = np.argsort(p_cols, kind="stable")
    p_rows = np.concatenate([rows[~neg], rows[neg], m1 + arange_j, m1 + arange_j])[order]
    p_vals = np.concatenate([vals[~neg], -vals[neg], np.ones(J), np.ones(J)])[order]
    P = _from_canonical(m1 + J, m2 + J, p_rows, p_cols[order], p_vals)
    tie = _from_canonical(m1, J, rows[neg], slack, -vals[neg])
    c = np.concatenate([b, np.zeros(J)])
    return EmbeddedSystem(P=P, c=c, neg_cols=neg_cols, J=J, m1=m1, m2=m2, tie=tie)


def extract(y, system: EmbeddedSystem) -> np.ndarray:
    """First m2 components of an embedded iterate: the original-system solution."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (system.m2 + system.J,):
        raise DimensionMismatch(f"y has length {y.size}, expected {system.m2 + system.J}")
    return y[: system.m2].copy()


def consistency_defect(y, system: EmbeddedSystem) -> float:
    """max_j |y_j + y_slack(j)| over the tied columns.

    At a true solution each slack equals the negated original component, so
    the defect vanishes; a large value after stagnation is the signal that
    the enlarged system stalled short of a solution.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (system.m2 + system.J,):
        raise DimensionMismatch(f"y has length {y.size}, expected {system.m2 + system.J}")
    if system.J == 0:
        return 0.0
    ties = y[system.neg_cols] + y[system.m2 + np.arange(system.J)]
    return float(np.abs(ties).max())


def general_solve(
    A: SparseMatrix,
    b,
    x0=None,
    cfg: SolverConfig | None = None,
) -> SolveReport:
    """Solve A x = b for arbitrary-sign A: embed, run the accelerated solver, extract.

    A nonnegative A is its own embedding (J = 0); any other gets one slack
    column per column with a negative entry.  The embedded system is solved
    by nna_solve's shift, loop in residual form (nna._run_loop) and
    auto-shift retries, but with an Anderson window of 20 where nna_solve's
    is 0: each iteration mixes the last 20 steps, and a safeguard takes the
    paper's plain step wherever the mixed point has y + t not positive or
    raises the divergence above the largest of the last 5 iterates', and
    keeps the steps it mixes.  An iteration costs two products with P, plus
    one for each mixed point the divergence test rejects (counted, with
    mixed points that are not positive, in the report's rejections);
    stagnated_min_kl is certified as in nna_solve.

    With x0 given, the embedded start is (x0, -x0 restricted to the tied
    columns), which the automatic shift clears (see nna_solve); the default
    start is all ones, which is already positive.  The
    report's residual trace and stopping test use the original system
    ||A x_n - b||_2, not the embedded one: each iteration maps the exact
    residual c - P y_n of its iterate, from the product P y_n it makes
    anyway, through the tie block, which matches the residual of the
    returned x up to the rounding of that map.  No residual is recomputed.
    """
    emb = embed(A, b)
    if x0 is None:
        y0 = np.ones(emb.m2 + emb.J)
    else:
        x0 = as_vector(x0, "x0", emb.m2)
        y0 = np.concatenate([x0, -x0[emb.neg_cols]])
    report = _solve(emb.P, emb.c, y0, cfg, emb.tie, _AA_WINDOW)
    return replace(report, x=extract(report.x, emb))
