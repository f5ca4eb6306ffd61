"""Classical iterative solvers used as comparison baselines.

Jacobi and Gauss-Seidel sweeps, conjugate gradients for SPD systems,
restarted GMRES(k) with modified Gram-Schmidt Arnoldi, MINRES(k) via the
Lanczos three-term recurrence, conjugate gradients on the normal equations,
and the diagonal-dominance classifier that decides which of them carry a
convergence guarantee.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IndefiniteBreakdown,
    NotSquare,
    NotSymmetric,
    ZeroDiagonal,
)
from .nna import SolveReport, SolveStatus, SolverConfig, default_tolerance
from .sparse import SparseMatrix, as_vector, from_arrays, spmv, spmv_transpose

__all__ = [
    "Dominance",
    "DominanceClass",
    "KrylovWorkspace",
    "LanczosState",
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
        residual_trace=np.asarray(trace),
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

    trace = []
    matvecs = 0
    n = 0
    while True:
        y = spmv(A_off, x)
        matvecs += 1
        trace.append(float(np.linalg.norm(b - y - diag * x)))
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

    trace = []
    matvecs = 0
    n = 0
    while True:
        trace.append(float(np.linalg.norm(b - spmv(A, x))))
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

def _cg_core(apply_op, rhs, x, eps, max_iter, value_fn):
    """Textbook CG recurrence on an abstract SPD operator.

    value_fn maps the recurrence state (x, r) to the traced/stopping residual
    value; plain CG passes ||r||, the normal-equation wrapper substitutes the
    original-system residual.
    """
    r = rhs - apply_op(x)
    matvecs = 1
    trace = [value_fn(x, r)]
    p = r.copy()
    rs = float(r @ r)
    n = 0
    while (status := _terminal(trace[-1], eps, n, max_iter)) is None:
        Ap = apply_op(p)
        matvecs += 1
        pAp = float(p @ Ap)
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
    return x, trace, status, matvecs


def cg_solve(
    A: SparseMatrix,
    b,
    x0=None,
    cfg: SolverConfig | None = None,
    assume_symmetric: bool = False,
) -> SolveReport:
    """Conjugate gradients for symmetric positive definite A.

    Symmetry is checked structurally (within 1e-12 relative) unless
    assume_symmetric is set; positive definiteness is assumed and its
    violation surfaces as IndefiniteBreakdown.
    """
    started = time.perf_counter_ns()
    b, x, cfg, eps = _setup(A, b, x0, cfg)
    if not assume_symmetric and not is_symmetric(A):
        raise NotSymmetric("cg_solve requires a symmetric matrix")

    x, trace, status, matvecs = _cg_core(
        lambda v: spmv(A, v),
        b,
        x,
        eps,
        cfg.max_iter,
        lambda x, r: float(np.linalg.norm(r)),
    )
    return _report(status, x, trace, started, matvecs)


def normal_equation_solve(A: SparseMatrix, b, x0=None, cfg: SolverConfig | None = None) -> SolveReport:
    """CG applied to A^T A x = A^T b without forming A^T A.

    The trace and stopping test use the original residual ||A x - b||_2,
    maintained incrementally from the inner products already computed.
    """
    started = time.perf_counter_ns()
    b, x, cfg, eps = _setup(A, b, x0, cfg, square=False)

    def apply_op(v):
        return spmv_transpose(A, spmv(A, v))

    def value_fn(x, r):
        return float(np.linalg.norm(b - spmv(A, x)))

    rhs = spmv_transpose(A, b)
    x, trace, status, matvecs = _cg_core(apply_op, rhs, x, eps, cfg.max_iter, value_fn)
    return _report(status, x, trace, started, 2 * matvecs + len(trace))


# ---------------------------------------------------------------------------
# Krylov: Arnoldi / Lanczos with restarted minimum-residual outer loop

@dataclass
class KrylovWorkspace:
    """Arnoldi output: orthonormal basis V, upper-Hessenberg H, and ||r0||.

    H has shape (k_eff + 1, k_eff); V holds every basis vector formed
    (k_eff + 1 columns, or k_eff on a happy breakdown).
    """

    V: np.ndarray
    H: np.ndarray
    beta: float


@dataclass
class LanczosState:
    """Lanczos output: tridiagonal coefficients alpha (diagonal) and beta
    (subdiagonal, including the trailing norm), plus the basis V."""

    alpha: np.ndarray
    beta: np.ndarray
    V: np.ndarray


def arnoldi_process(A: SparseMatrix, r0, k: int, tol: float) -> KrylovWorkspace:
    """Run k steps of Arnoldi with modified Gram-Schmidt from r0.

    Truncates early (happy breakdown) when the next subdiagonal norm falls
    below tol, meaning the Krylov space became invariant.
    """
    r0 = np.asarray(r0, dtype=np.float64)
    beta = float(np.linalg.norm(r0))
    vs = [r0 / beta]
    H = np.zeros((k + 1, k))
    k_eff = k
    for j in range(k):
        w = spmv(A, vs[j])
        for i in range(j + 1):
            H[i, j] = float(w @ vs[i])
            w -= H[i, j] * vs[i]
        H[j + 1, j] = float(np.linalg.norm(w))
        if H[j + 1, j] < tol:
            k_eff = j + 1
            break
        vs.append(w / H[j + 1, j])
    V = np.column_stack(vs)
    return KrylovWorkspace(V=V, H=H[: k_eff + 1, :k_eff], beta=beta)


def lanczos_process(A: SparseMatrix, r0, k: int, tol: float) -> LanczosState:
    """Run k steps of the Lanczos three-term recurrence from r0."""
    r0 = np.asarray(r0, dtype=np.float64)
    beta0 = float(np.linalg.norm(r0))
    vs = [r0 / beta0]
    alphas = []
    betas = []
    v_prev = np.zeros(r0.size)
    beta_j = 0.0
    for j in range(k):
        w = spmv(A, vs[j]) - beta_j * v_prev
        a = float(w @ vs[j])
        w -= a * vs[j]
        alphas.append(a)
        beta_next = float(np.linalg.norm(w))
        betas.append(beta_next)
        if beta_next < tol:
            break
        v_prev = vs[j]
        beta_j = beta_next
        vs.append(w / beta_next)
    return LanczosState(alpha=np.asarray(alphas), beta=np.asarray(betas), V=np.column_stack(vs))


def _tridiagonal_from_lanczos(state: LanczosState) -> np.ndarray:
    k = state.alpha.size
    j = np.arange(k)
    H = np.zeros((k + 1, k))
    H[j, j] = state.alpha
    H[j + 1, j] = state.beta
    H[j[:-1], j[1:]] = state.beta[:-1]
    return H


def _restarted_minimum_residual(A, b, x0, k, cfg, inner, started) -> SolveReport:
    """Shared outer loop: restart the inner projection until tolerance.

    One report iteration is one restart (one application of the k-step
    cycle); matvec_count carries the total number of products.  A restart
    that ends on an invariant Krylov space (last subdiagonal of H below eps)
    and still leaves x unchanged is GMRES's breakdown: H is singular there,
    the space holds no better x, and every later restart would repeat this
    one bit for bit, so the run ends as BREAKDOWN.  A zero step on a space
    that is not invariant is stagnation; it runs on to max_iter.
    """
    b, x, cfg, eps = _setup(A, b, x0, cfg)
    if k < 1:
        raise DimensionMismatch("restart length k must be >= 1")
    r = b - spmv(A, x)
    matvecs = 1
    trace = [float(np.linalg.norm(r))]
    restarts = 0
    diagnostic = None
    while (status := _terminal(trace[-1], eps, restarts, cfg.max_iter)) is None:
        V, H, used = inner(A, r, k, eps)
        matvecs += used
        if not np.isfinite(H).all():  # a product overflowed; LAPACK would reject H
            status = SolveStatus.BREAKDOWN
            break
        rhs = np.zeros(H.shape[0])
        rhs[0] = trace[-1]
        # min ||beta e1 - H y||; LAPACK's least squares copes with a singular H
        y = np.linalg.lstsq(H, rhs, rcond=None)[0]
        x_next = x + V[:, : H.shape[1]] @ y
        restarts += 1
        if H[-1, -1] < eps and np.array_equal(x_next, x):
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
        trace.append(float(np.linalg.norm(r)))
    return _report(status, x, trace, started, matvecs, diagnostic)


def gmres_restarted(A: SparseMatrix, b, x0=None, k: int = 20, cfg: SolverConfig | None = None) -> SolveReport:
    """Restarted GMRES(k): Arnoldi + Hessenberg least squares, repeated.

    cfg.max_iter bounds the number of restarts.  GMRES may stagnate on
    general matrices; that surfaces as MAX_ITERATIONS, not an error.
    """
    started = time.perf_counter_ns()

    def inner(A, r, k, eps):
        ws = arnoldi_process(A, r, k, eps)
        return ws.V, ws.H, ws.H.shape[1]

    return _restarted_minimum_residual(A, b, x0, k, cfg, inner, started)


def minres_solve(
    A: SparseMatrix,
    b,
    x0=None,
    k: int = 20,
    cfg: SolverConfig | None = None,
    assume_symmetric: bool = False,
) -> SolveReport:
    """Restarted minimum-residual solve for symmetric A via Lanczos.

    Same outer logic as GMRES(k) with the Arnoldi loop replaced by the
    three-term recurrence, so each cycle costs k (2 nnz + 9 m) flops plus a
    small least-squares solve.
    """
    started = time.perf_counter_ns()
    if not assume_symmetric and not is_symmetric(A):
        raise NotSymmetric("minres_solve requires a symmetric matrix")

    def inner(A, r, k, eps):
        state = lanczos_process(A, r, k, eps)
        H = _tridiagonal_from_lanczos(state)
        return state.V, H, state.alpha.size

    return _restarted_minimum_residual(A, b, x0, k, cfg, inner, started)


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
