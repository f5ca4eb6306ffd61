"""Classical iterative solvers used as comparison baselines.

Jacobi and Gauss-Seidel sweeps, conjugate gradients for SPD systems,
restarted GMRES(k) with modified Gram-Schmidt Arnoldi, MINRES(k) via the
Lanczos three-term recurrence, conjugate gradients on the normal equations,
and the diagonal-dominance classifier that decides which of them carry a
convergence guarantee.
"""

from __future__ import annotations

import enum
import math
import time
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IndefiniteBreakdown,
    NotSquare,
    NotSymmetric,
    ZeroDiagonal,
)
from .nna import SolveReport, SolveStatus, SolverConfig, _norm, default_tolerance
from .sparse import SparseMatrix, as_vector, from_arrays, spmv, spmv_transpose

__all__ = [
    "Dominance",
    "DominanceClass",
    "arnoldi_process",
    "cg_solve",
    "dominance_class",
    "gauss_seidel_solve",
    "gmres_restarted",
    "is_symmetric",
    "jacobi_solve",
    "lanczos_process",
    "minres_solve",
    "normal_equation_solve",
]


# ---------------------------------------------------------------------------
# shared plumbing

def _setup(A: SparseMatrix, b, x0, cfg, square=True):
    if square and A.nrows != A.ncols:
        raise NotSquare(f"solver requires a square matrix, got {A.nrows}x{A.ncols}")
    b = as_vector(b, "b")
    if b.shape != (A.nrows,):
        raise DimensionMismatch(f"b has length {b.size}, expected {A.nrows}")
    x = np.zeros(A.ncols) if x0 is None else as_vector(x0, "x0").copy()
    if x.shape != (A.ncols,):
        raise DimensionMismatch(f"x0 has length {x.size}, expected {A.ncols}")
    cfg = cfg if cfg is not None else SolverConfig()
    eps = cfg.eps_tol if cfg.eps_tol is not None else default_tolerance(b)
    return b, x, cfg, eps


def _report(status, x, trace, started, matvecs, diagnostic=None):
    return SolveReport(
        status=status,
        iterations=len(trace) - 1,
        x=x,
        residual_trace=np.frombuffer(trace),
        kl_trace=np.empty(0),
        elapsed_ns=time.perf_counter_ns() - started,
        matvec_count=matvecs,
        diagnostic=diagnostic,
    )


def _terminal(res: float, eps: float, n: int, max_iter: int) -> SolveStatus | None:
    """Status a run ends with at residual res after n iterations, or None to go on."""
    if not np.isfinite(res):
        return SolveStatus.BREAKDOWN
    if res <= eps:
        return SolveStatus.CONVERGED
    if n >= max_iter:
        return SolveStatus.MAX_ITERATIONS
    return None


def _split_diagonal(A: SparseMatrix) -> tuple[np.ndarray, SparseMatrix]:
    """The diagonal of A, which must have no zeros, and A without its diagonal."""
    diag = A.diagonal()
    dead = np.flatnonzero(diag == 0.0)
    if dead.size:
        raise ZeroDiagonal(int(dead[0]))
    rows, cols, vals = A.triplets()
    off = rows != cols
    return diag, from_arrays(A.nrows, A.ncols, rows[off], cols[off], vals[off])


def is_symmetric(A: SparseMatrix, rtol: float = 1e-12) -> bool:
    """Structural and value symmetry within a relative tolerance."""
    if A.nrows != A.ncols:
        return False
    T = A.transpose()
    if not (np.array_equal(A.col_ptr, T.col_ptr) and np.array_equal(A.row_idx, T.row_idx)):
        return False
    scale = np.maximum(np.abs(A.values), np.abs(T.values))
    return bool(np.all(np.abs(A.values - T.values) <= rtol * scale))


# ---------------------------------------------------------------------------
# stationary methods

def jacobi_solve(A: SparseMatrix, b, x0=None, cfg: SolverConfig | None = None) -> SolveReport:
    """Jacobi sweeps x_{n+1} = D^{-1} (b - (A - D) x_n)."""
    started = time.perf_counter_ns()
    b, x, cfg, eps = _setup(A, b, x0, cfg)
    diag, A_off = _split_diagonal(A)

    trace = array("d")
    matvecs = 0
    n = 0
    while True:
        y = spmv(A_off, x)
        matvecs += 1
        trace.append(_norm(b - y - diag * x))
        status = _terminal(trace[-1], eps, n, cfg.max_iter)
        if status is not None:
            return _report(status, x, trace, started, matvecs)
        x = (b - y) / diag
        n += 1


def gauss_seidel_solve(A: SparseMatrix, b, x0=None, cfg: SolverConfig | None = None) -> SolveReport:
    """Gauss-Seidel forward sweeps, updating in place row by row.

    Builds a one-off row-major mirror of the off-diagonal part at setup (the
    sweep needs row access, which CSC cannot provide directly).  Row j reads
    the entries x[<j] already updated in the same sweep.
    """
    started = time.perf_counter_ns()
    b, x, cfg, eps = _setup(A, b, x0, cfg)
    diag, A_off = _split_diagonal(A)
    T = A_off.transpose()  # column j of T = row j of A_off
    ptr, idx, vals = T.col_ptr.tolist(), T.row_idx, T.values

    trace = array("d")
    matvecs = 0
    n = 0
    while True:
        trace.append(_norm(b - spmv(A, x)))
        matvecs += 1
        status = _terminal(trace[-1], eps, n, cfg.max_iter)
        if status is not None:
            return _report(status, x, trace, started, matvecs)
        for j in range(A.nrows):
            lo, hi = ptr[j], ptr[j + 1]
            x[j] = (b[j] - vals[lo:hi] @ x[idx[lo:hi]]) / diag[j]
        n += 1


# ---------------------------------------------------------------------------
# conjugate gradients

@np.errstate(over="ignore")  # an inner product that overflows ends the run as a breakdown
def _cg_core(apply_op, rhs, x, eps, max_iter, value_fn):
    """Textbook CG recurrence on an abstract SPD operator.

    value_fn maps the recurrence state (x, r) to the traced/stopping residual
    value; plain CG passes ||r||, the normal-equation wrapper substitutes the
    original-system residual.  Returns (x, trace, status, matvecs, diagnostic).
    """
    r = rhs - apply_op(x)
    matvecs = 1
    trace = array("d", [value_fn(x, r)])
    p = r.copy()
    rs = float(r @ r)
    n = 0
    diagnostic = None
    while (status := _terminal(trace[-1], eps, n, max_iter)) is None:
        Ap = apply_op(p)
        matvecs += 1
        pAp = float(p @ Ap)
        if not (math.isfinite(rs) and math.isfinite(pAp)):
            status = SolveStatus.BREAKDOWN
            diagnostic = f"r^T r = {rs:.3e}, p^T A p = {pAp:.3e} at iteration {n}: the recurrence overflowed"
            break
        if pAp <= 0.0:
            raise IndefiniteBreakdown(
                f"p^T A p = {pAp:.3e} <= 0 at iteration {n}; operator is not positive definite"
            )
        alpha = rs / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = float(r @ r)
        trace.append(value_fn(x, r))
        beta = rs_new / rs
        p = r + beta * p
        rs = rs_new
        n += 1
    return x, trace, status, matvecs, diagnostic


def cg_solve(A: SparseMatrix, b, x0=None, cfg: SolverConfig | None = None) -> SolveReport:
    """Conjugate gradients for symmetric positive definite A.

    Symmetry is checked structurally (within 1e-12 relative); positive
    definiteness is assumed and its violation surfaces as IndefiniteBreakdown.
    """
    started = time.perf_counter_ns()
    b, x, cfg, eps = _setup(A, b, x0, cfg)
    if not is_symmetric(A):
        raise NotSymmetric("cg_solve requires a symmetric matrix")

    x, trace, status, matvecs, diagnostic = _cg_core(
        lambda v: spmv(A, v),
        b,
        x,
        eps,
        cfg.max_iter,
        lambda x, r: _norm(r),
    )
    return _report(status, x, trace, started, matvecs, diagnostic)


def normal_equation_solve(A: SparseMatrix, b, x0=None, cfg: SolverConfig | None = None) -> SolveReport:
    """CG applied to A^T A x = A^T b without forming A^T A.

    The trace and stopping test use the original residual ||b - A x||_2,
    recomputed with one product by A per trace entry, which matvec_count
    includes next to the two products per CG step and the product A^T b.
    """
    started = time.perf_counter_ns()
    b, x, cfg, eps = _setup(A, b, x0, cfg, square=False)

    def apply_op(v):
        return spmv_transpose(A, spmv(A, v))

    def value_fn(x, r):
        return _norm(b - spmv(A, x))

    rhs = spmv_transpose(A, b)
    x, trace, status, matvecs, diagnostic = _cg_core(apply_op, rhs, x, eps, cfg.max_iter, value_fn)
    return _report(status, x, trace, started, 2 * matvecs + len(trace) + 1, diagnostic)


# ---------------------------------------------------------------------------
# Krylov: Arnoldi / Lanczos with restarted minimum-residual outer loop

# A subdiagonal at or below this share of ||A v_j|| means the Krylov space is
# invariant under A; a ratio of norms, so it holds at any scale of A and r0
_INVARIANT_REL = 1e-12


def arnoldi_process(A: SparseMatrix, r0, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Run k steps of Arnoldi with modified Gram-Schmidt from r0.

    Returns (V, H): H is the (k_eff + 1) x k_eff upper-Hessenberg matrix and V
    the orthonormal basis, with k_eff + 1 columns, or k_eff when step k_eff
    found the Krylov space invariant (subdiagonal at most _INVARIANT_REL times
    its column norm, which is ||A v_j||).
    """
    r0 = np.asarray(r0, dtype=np.float64)
    vs = [r0 / _norm(r0)]
    H = np.zeros((k + 1, k))
    for j in range(k):
        w = spmv(A, vs[j])
        for i in range(j + 1):
            H[i, j] = float(w @ vs[i])
            w -= H[i, j] * vs[i]
        H[j + 1, j] = _norm(w)
        if H[j + 1, j] <= _INVARIANT_REL * _norm(H[: j + 2, j]):
            return np.column_stack(vs), H[: j + 2, : j + 1]
        vs.append(w / H[j + 1, j])
    return np.column_stack(vs), H


def lanczos_process(A: SparseMatrix, r0, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Run k steps of the Lanczos three-term recurrence from r0.

    Same contract and invariance stop as arnoldi_process; H is tridiagonal.
    """
    r0 = np.asarray(r0, dtype=np.float64)
    vs = [r0 / _norm(r0)]
    H = np.zeros((k + 1, k))
    for j in range(k):
        w = spmv(A, vs[j])
        if j:
            H[j - 1, j] = H[j, j - 1]
            w -= H[j - 1, j] * vs[j - 1]
        H[j, j] = float(w @ vs[j])
        w -= H[j, j] * vs[j]
        H[j + 1, j] = _norm(w)
        if H[j + 1, j] <= _INVARIANT_REL * _norm(H[: j + 2, j]):
            return np.column_stack(vs), H[: j + 2, : j + 1]
        vs.append(w / H[j + 1, j])
    return np.column_stack(vs), H


def _restarted_minimum_residual(A, b, x0, k, cfg, process) -> SolveReport:
    """Shared outer loop: restart the projection built by process until tolerance.

    One report iteration is one restart (one application of the k-step
    cycle); matvec_count carries the total number of products.  A restart
    that ends on an invariant Krylov space (V has no column past H's last)
    and still leaves x unchanged is GMRES's breakdown: H is singular there,
    the space holds no better x, and every later restart would repeat this
    one bit for bit, so the run ends as BREAKDOWN.  A zero step on a space
    that is not invariant is stagnation; it runs on to max_iter.
    """
    started = time.perf_counter_ns()
    b, x, cfg, eps = _setup(A, b, x0, cfg)
    if k < 1:
        raise DimensionMismatch("restart length k must be >= 1")
    r = b - spmv(A, x)
    matvecs = 1
    trace = array("d", [_norm(r)])
    restarts = 0
    diagnostic = None
    while (status := _terminal(trace[-1], eps, restarts, cfg.max_iter)) is None:
        V, H = process(A, r, k)
        steps = H.shape[1]
        matvecs += steps
        if not np.isfinite(H).all():  # a product overflowed; LAPACK would reject H
            status = SolveStatus.BREAKDOWN
            break
        rhs = np.zeros(steps + 1)
        rhs[0] = trace[-1]
        # min ||beta e1 - H y||; LAPACK's least squares copes with a singular H
        y = np.linalg.lstsq(H, rhs, rcond=None)[0]
        x_next = x + V[:, :steps] @ y
        invariant = V.shape[1] == steps
        del V  # else it stays alive while the next restart builds its basis
        restarts += 1
        if invariant and np.array_equal(x_next, x):
            # r is unchanged too, so every later restart would repeat this one bit for bit
            trace.append(trace[-1])
            status = SolveStatus.BREAKDOWN
            diagnostic = (
                f"restart {restarts}: the Krylov space is invariant under A but its "
                "least-squares step left x unchanged; every later restart would repeat it"
            )
            break
        x = x_next
        r = b - spmv(A, x)
        matvecs += 1
        trace.append(_norm(r))
    return _report(status, x, trace, started, matvecs, diagnostic)


def gmres_restarted(A: SparseMatrix, b, x0=None, k: int = 20, cfg: SolverConfig | None = None) -> SolveReport:
    """Restarted GMRES(k): Arnoldi + Hessenberg least squares, repeated.

    cfg.max_iter bounds the number of restarts.  GMRES may stagnate on
    general matrices; that surfaces as MAX_ITERATIONS, not an error.
    """
    # looked up per call, not bound at import, so a wrapper patched onto
    # nnasolve.baselines.arnoldi_process sees every restart
    return _restarted_minimum_residual(A, b, x0, k, cfg, arnoldi_process)


def minres_solve(A: SparseMatrix, b, x0=None, k: int = 20, cfg: SolverConfig | None = None) -> SolveReport:
    """Restarted minimum-residual solve for symmetric A via Lanczos.

    Same outer logic as GMRES(k) with the Arnoldi loop replaced by the
    three-term recurrence, so each cycle costs k (2 nnz + 9 m) flops plus a
    small least-squares solve.
    """
    if not is_symmetric(A):
        raise NotSymmetric("minres_solve requires a symmetric matrix")
    return _restarted_minimum_residual(A, b, x0, k, cfg, lanczos_process)


# ---------------------------------------------------------------------------
# diagonal dominance classification

class Dominance(enum.Enum):
    STRICTLY_DOMINANT = "strictly_dominant"
    IRREDUCIBLY_DOMINANT = "irreducibly_dominant"
    WEAKLY_DOMINANT = "weakly_dominant"
    NOT_DOMINANT = "not_dominant"


@dataclass
class DominanceClass:
    classification: Dominance
    symmetric: bool


def _reaches_all(A: SparseMatrix) -> bool:
    """Whether node 0 reaches every node along edges j -> i, one per stored a_ij."""
    ptr, rows = A.col_ptr.tolist(), A.row_idx.tolist()
    seen = [False] * A.nrows
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        j = stack.pop()
        for i in rows[ptr[j] : ptr[j + 1]]:
            if not seen[i]:
                seen[i] = True
                reached += 1
                stack.append(i)
    return reached == A.nrows


def _strongly_connected(A: SparseMatrix) -> bool:
    """Whether the sparsity digraph (edge j -> i per stored entry) is one SCC.

    It is when node 0 reaches every node both in the digraph and in its
    reverse, the digraph of the transpose: two depth-first passes, O(nnz + m).
    """
    return A.nrows <= 1 or (_reaches_all(A) and _reaches_all(A.transpose()))


def dominance_class(A: SparseMatrix) -> DominanceClass:
    """Rowwise diagonal-dominance classification plus value symmetry.

    strict: |a_jj| > sum_{i != j} |a_ji| on every row; irreducibly dominant:
    weak everywhere, strict somewhere, and the sparsity digraph strongly
    connected; weak: the inequalities hold but neither stronger form does.
    """
    if A.nrows != A.ncols:
        raise NotSquare(f"dominance_class requires a square matrix, got {A.nrows}x{A.ncols}")
    rows, cols, vals = A.triplets()
    off = rows != cols
    off_row_sums = np.bincount(rows[off], weights=np.abs(vals[off]), minlength=A.nrows)
    diag = np.abs(A.diagonal())
    weak = bool(np.all(diag >= off_row_sums))
    strict_rows = diag > off_row_sums
    if weak and bool(np.all(strict_rows)):
        kind = Dominance.STRICTLY_DOMINANT
    elif weak and bool(np.any(strict_rows)) and _strongly_connected(A):
        kind = Dominance.IRREDUCIBLY_DOMINANT
    elif weak:
        kind = Dominance.WEAKLY_DOMINANT
    else:
        kind = Dominance.NOT_DOMINANT
    return DominanceClass(classification=kind, symmetric=is_symmetric(A))
