"""Classical iterative solvers used as comparison baselines.

Jacobi and Gauss-Seidel sweeps, conjugate gradients for SPD systems,
restarted GMRES(k) with modified Gram-Schmidt Arnoldi, MINRES(k) with
Lanczos (the same loop against two vectors), conjugate gradients on the
normal equations, and the diagonal-dominance classifier that decides which
of them carry a convergence guarantee.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IndefiniteBreakdown, NotSquare, ZeroDiagonal
from .nna import SolveReport, SolveStatus, SolverConfig, _norm, _ResidualGate, _setup
from .sparse import SparseMatrix, _from_canonical, is_symmetric, spmv, spmv_transpose

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

def _start_residual(A: SparseMatrix, b, x) -> tuple[np.ndarray, int]:
    """b - A x and the products it took: none at a zero x, where it is b."""
    return (b - spmv(A, x), 1) if x.any() else (b, 0)


def _start(A: SparseMatrix, b, x, eps) -> tuple[_ResidualGate, int]:
    """The gate of a run that carries b - A x from x, and the products its
    first entry took."""
    r, products = _start_residual(A, b, x)
    return _ResidualGate(eps, lambda x: b - spmv(A, x), first=r), products


# ---------------------------------------------------------------------------
# stationary methods

def _stationary(A: SparseMatrix, b, x0, cfg, splitting) -> SolveReport:
    """Sweeps x_{n+1} = x_n + M^{-1} r_n, r_n = b - A x_n, where splitting(A, D)
    gives r -> M^{-1} r, D the diagonal of A, which must have no zeros.  The
    product A x_n of a sweep gives both the residual the gate traces and the
    next correction; from a zero x_0 the first residual is b, no product."""
    started = time.perf_counter_ns()
    b, x, cfg, eps = _setup(A, b, x0, cfg, np.zeros)
    diag = A.diagonal()
    if (dead := np.flatnonzero(diag == 0.0)).size:
        raise ZeroDiagonal(int(dead[0]))
    solve_m = splitting(A, diag)
    r, products = _start_residual(A, b, x)
    gate = _ResidualGate(eps, first=r)
    n = 0
    while (status := gate.status(x, n, cfg.max_iter)) is None:
        x = x + solve_m(gate.residual)
        gate.add(b - spmv(A, x))
        products += 1
        n += 1
    return gate.report(status, x, started, products)


def _forward_substitution(A: SparseMatrix, diag):
    """r -> (D + L)^{-1} r, L the strictly lower part of A, row by row over a
    row-major mirror of L built once per solve (CSC gives no row access)."""
    lower = A.row_idx > A.entry_col  # masked canonical arrays stay canonical
    L_T = _from_canonical(A.nrows, A.ncols, A.row_idx[lower], A.entry_col[lower], A.values[lower]).transpose()
    ptr, idx, vals = L_T.col_ptr.tolist(), L_T.row_idx, L_T.values

    def solve(r):
        z = np.empty_like(r)
        for j in range(z.size):  # row j reads z[<j], solved earlier in the pass
            lo, hi = ptr[j], ptr[j + 1]
            z[j] = (r[j] - vals[lo:hi] @ z[idx[lo:hi]]) / diag[j]
        return z

    return solve


def jacobi_solve(A: SparseMatrix, b, x0=None, cfg: SolverConfig | None = None) -> SolveReport:
    """Jacobi sweeps x_{n+1} = x_n + D^{-1} (b - A x_n); see _stationary."""
    return _stationary(A, b, x0, cfg, lambda A, diag: lambda r: r / diag)


def gauss_seidel_solve(A: SparseMatrix, b, x0=None, cfg: SolverConfig | None = None) -> SolveReport:
    """Gauss-Seidel sweeps x_{n+1} = x_n + (D + L)^{-1} (b - A x_n), L the
    strictly lower part of A, the only entries a sweep reads; see _stationary."""
    return _stationary(A, b, x0, cfg, _forward_substitution)


# ---------------------------------------------------------------------------
# conjugate gradients

@np.errstate(over="ignore")  # an inner product that overflows ends the run as a breakdown
def _cg_core(apply_op, r, x, gate, max_iter, carried=None):
    """Textbook CG recurrence on an abstract SPD operator, from x with residual r.

    The caller forms r = rhs - op(x) (at a zero x it is rhs, no application)
    and the gate with the first residual it traces.  The gate traces r itself
    unless carried is given: after each step of length alpha, carried(alpha)
    gives the vector traced instead (the normal-equation wrapper's b - A x).
    Where the gate traces r, a failed confirmation replaces r by the
    recomputed b - A x (van der Vorst & Ye 2000) and CG restarts from it,
    p = r: a direction built across a replacement that large is not
    conjugate.  Returns (x, status, applies, diagnostic), applies counting
    the applications of apply_op.
    """
    applies = n = 0
    diagnostic = None
    while (status := gate.status(x, n, max_iter)) is None:
        restart = n == 0
        if carried is None and gate.residual is not r:  # a confirmation replaced r
            r, restart = gate.residual, True
        if not r.any():
            # CGLS can reach A^T s = 0 exactly with s above eps; the next p is 0
            status = SolveStatus.BREAKDOWN
            diagnostic = f"iteration {n}: r = 0, so a step would leave x unchanged, and so would every later one"
            break
        rs_new = float(r @ r)
        pAp = math.nan  # stays nan where no product by p is made
        if 0.0 < rs_new < math.inf:
            p = r if restart else r + (rs_new / rs) * p
            rs = rs_new
            Ap = apply_op(p)
            applies += 1
            pAp = float(p @ Ap)
        # a p^T A p of 0 from nonzero p and A p is an underflow where the
        # product at unit scale is positive; otherwise A is not definite
        underflowed = pAp == 0.0 and Ap.any() and (p / np.abs(p).max()) @ (Ap / np.abs(Ap).max()) > 0.0
        if not math.isfinite(pAp) or underflowed:
            # r is not 0, so an r^T r of 0 is a square that underflowed
            status = SolveStatus.BREAKDOWN
            diagnostic = (
                f"r^T r = {rs_new:.3e}, ||r|| = {_norm(r):.3e}, p^T A p = {pAp:.3e} at iteration {n}: "
                "the recurrence left the floating-point range"
            )
            break
        if pAp <= 0.0:
            raise IndefiniteBreakdown(
                f"p^T A p = {pAp:.3e} <= 0 at iteration {n}; operator is not positive definite"
            )
        alpha = rs / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        gate.add(r if carried is None else carried(alpha))
        n += 1
    return x, status, applies, diagnostic


def cg_solve(A: SparseMatrix, b, x0=None, cfg: SolverConfig | None = None) -> SolveReport:
    """Conjugate gradients for symmetric positive definite A.

    Symmetry is checked structurally (within 1e-12 relative); positive
    definiteness is assumed and its violation surfaces as IndefiniteBreakdown.
    The recurrence residual drifts from b - A x (Greenbaum 1997), so the gate
    confirms it with one counted product before the run may converge.
    """
    started = time.perf_counter_ns()
    b, x, cfg, eps = _setup(A, b, x0, cfg, np.zeros, symmetric=True)
    gate, products = _start(A, b, x, eps)
    x, status, applies, diagnostic = _cg_core(lambda v: spmv(A, v), gate.residual, x, gate, cfg.max_iter)
    return gate.report(status, x, started, products + applies, diagnostic=diagnostic)


def normal_equation_solve(A: SparseMatrix, b, x0=None, cfg: SolverConfig | None = None) -> SolveReport:
    """CG applied to A^T A x = A^T b without forming A^T A (CGLS).

    The trace and stopping test use the original residual s = b - A x.  The
    start forms s (b itself at a zero x, no product) and A^T s; after that
    each step carries s <- s - alpha A p, reusing the A p of its product by
    A^T A, and the gate confirms the carried s.  matvec_count counts the
    start's products, the two of each CG step and each confirmation.
    """
    started = time.perf_counter_ns()
    b, x, cfg, eps = _setup(A, b, x0, cfg, np.zeros, square=False)
    gate, products = _start(A, b, x, eps)
    Ap = None  # A p of the latest step

    def apply_op(p):
        nonlocal Ap
        Ap = spmv(A, p)
        return spmv_transpose(A, Ap)

    r = spmv_transpose(A, gate.residual)
    products += 1
    x, status, applies, diagnostic = _cg_core(
        apply_op, r, x, gate, cfg.max_iter, lambda alpha: gate.residual - alpha * Ap
    )
    return gate.report(status, x, started, products + 2 * applies, diagnostic=diagnostic)


# ---------------------------------------------------------------------------
# Krylov: Arnoldi / Lanczos with restarted minimum-residual outer loop

# A subdiagonal at or below this share of ||A v_j|| means the Krylov space is
# invariant under A; a ratio of norms, so it holds at any scale of A and r0
_INVARIANT_REL = 1e-12


def _build_basis(A, r0, k, target, depth):
    """The loop both builders share: modified Gram-Schmidt of A v_j against
    the last depth basis vectors, row j of one (k + 1) x n array holding v_j.

    Given a target, u traces the left null vector of H[:j+2, :j+1] (u_0 = 1),
    so the least-squares residual min ||beta e1 - H y|| is beta / ||u||.  A
    zero subdiagonal never divides: it ends the loop on the invariance test.
    """
    r0 = np.asarray(r0, dtype=np.float64)
    beta = _norm(r0)
    basis = np.empty((k + 1, r0.size))
    np.divide(r0, beta, out=basis[0])
    H = np.zeros((k + 1, k))
    u = np.zeros(k + 1)
    u[0] = 1.0
    for j in range(k):
        w = spmv(A, basis[j])
        for i in range(max(0, j + 1 - depth), j + 1):
            H[i, j] = float(w @ basis[i])
            w -= H[i, j] * basis[i]
        H[j + 1, j] = _norm(w)
        if H[j + 1, j] <= _INVARIANT_REL * _norm(H[: j + 2, j]):
            return basis[: j + 1].T, H[: j + 2, : j + 1]
        np.divide(w, H[j + 1, j], out=basis[j + 1])
        if target is not None:
            u[j + 1] = -float(H[: j + 1, j] @ u[: j + 1]) / H[j + 1, j]
            if beta <= target * _norm(u[: j + 2]):
                return basis[: j + 2].T, H[: j + 2, : j + 1]
    return basis.T, H


def arnoldi_process(
    A: SparseMatrix, r0, k: int, target: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Run k steps of Arnoldi with modified Gram-Schmidt from r0.

    Returns (V, H): H is the (k_eff + 1) x k_eff upper-Hessenberg matrix and V
    the orthonormal basis, with k_eff + 1 columns, or k_eff when step k_eff
    found the Krylov space invariant (subdiagonal at most _INVARIANT_REL times
    its column norm, which is ||A v_j||).  Given a target, the run also ends
    at the first step whose least-squares residual min ||beta e1 - H y||,
    read off the left null vector of H as beta / ||u||, is at most target.
    """
    return _build_basis(A, r0, k, target, k)


def lanczos_process(
    A: SparseMatrix, r0, k: int, target: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Run k steps of Lanczos from r0: Arnoldi against v_(j-1) and v_j only,
    enough for symmetric A (Saad 2003, Iterative Methods, sec. 6.6).

    Same contract, invariance stop and target as arnoldi_process.  H is 0
    above its first superdiagonal; H[j-1, j] = (A v_j) . v_(j-1) equals
    H[j, j-1] in exact arithmetic, so H is symmetric up to rounding.
    """
    return _build_basis(A, r0, k, target, 2)


def _restarted_minimum_residual(A, b, x0, k, cfg, process, symmetric=False) -> SolveReport:
    """Shared outer loop: restart the projection built by process until tolerance.

    One report iteration is one restart, a cycle of at most k steps;
    matvec_count carries the total number of products.  A cycle ends at the
    first step whose least-squares residual reaches the gate of the trace
    (eps at first), or on an invariant Krylov space.  The next cycle starts
    from r = V (beta e1 - H y), which the Arnoldi relation A V_k = V_{k+1} H
    makes equal to b - A x up to rounding, so it costs no product; its norm is
    traced as a carried entry of the gate, which confirms it.  From
    a zero x the residual is b itself, so no product is made for it.  A
    restart that leaves x bit-identical ends the run as BREAKDOWN: restarts
    are deterministic, so every later restart would repeat it.  That covers
    both a singular H on an invariant Krylov space and a zero step on one that
    is not (GMRES(1) on a rotation).
    """
    started = time.perf_counter_ns()
    b, x, cfg, eps = _setup(A, b, x0, cfg, np.zeros, symmetric=symmetric)
    if k < 1:
        raise DimensionMismatch("restart length k must be >= 1")
    gate, products = _start(A, b, x, eps)
    restarts = 0
    diagnostic = None
    while (status := gate.status(x, restarts, cfg.max_iter)) is None:
        V, H = process(A, gate.residual, k, gate.gate)
        steps = H.shape[1]
        products += steps
        if not np.isfinite(H).all():  # LAPACK would reject H
            status = SolveStatus.BREAKDOWN
            diagnostic = f"restart {restarts + 1}: H is not finite after {steps} steps: a product overflowed"
            break
        z = np.zeros(steps + 1)
        z[0] = gate.values[-1]
        # min ||beta e1 - H y||; LAPACK's least squares copes with a singular H
        y = np.linalg.lstsq(H, z, rcond=None)[0]
        x_next = x + V[:, :steps] @ y
        restarts += 1
        if np.array_equal(x_next, x):
            # r is unchanged too, so every later restart would repeat this one bit for bit
            gate.values.append(gate.values[-1])
            status = SolveStatus.BREAKDOWN
            diagnostic = f"restart {restarts}: the least-squares step left x unchanged; every later one would repeat it"
            break
        z -= H @ y
        invariant = V.shape[1] == steps
        x = x_next
        # an invariant space has no v_{k+1}; its coefficient is the negligible subdiagonal
        gate.add(V @ z[: V.shape[1]])
        del V  # else it stays alive while the next restart builds its basis
        if invariant:
            # the step was the best the closed space holds; a restart from the
            # rounding in the carried r would take spurious steps, so confirm now
            gate.confirm(x)
    return gate.report(status, x, started, products, diagnostic=diagnostic)


def gmres_restarted(A: SparseMatrix, b, x0=None, k: int = 20, cfg: SolverConfig | None = None) -> SolveReport:
    """Restarted GMRES(k): Arnoldi + Hessenberg least squares, repeated.

    cfg.max_iter bounds the number of restarts.  A cycle stops at the Arnoldi
    step whose least-squares residual reaches the target, and the next one
    starts from the residual the Arnoldi relation carries; the returned
    residual is always recomputed from A (see _restarted_minimum_residual).
    GMRES may stagnate on general matrices: a restart that cannot move x is a
    BREAKDOWN, slow progress surfaces as MAX_ITERATIONS, neither as an error.
    """
    # looked up per call, not bound at import, so a wrapper patched onto
    # nnasolve.baselines.arnoldi_process sees every restart
    return _restarted_minimum_residual(A, b, x0, k, cfg, arnoldi_process)


def minres_solve(A: SparseMatrix, b, x0=None, k: int = 20, cfg: SolverConfig | None = None) -> SolveReport:
    """Restarted minimum-residual solve for symmetric A via Lanczos.

    Same outer logic as GMRES(k) with Arnoldi replaced by Lanczos, so each
    cycle costs k (2 nnz + 11 m) flops plus a small least-squares solve.
    """
    return _restarted_minimum_residual(A, b, x0, k, cfg, lanczos_process, symmetric=True)


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
    off = A.row_idx != A.entry_col
    off_row_sums = np.bincount(A.row_idx[off], weights=np.abs(A.values[off]), minlength=A.nrows)
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
