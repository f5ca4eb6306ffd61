"""Multiplicative fixed-point solver for nonnegative linear systems.

The pipeline is: shift (x, b) -> (x + t*1, b + t*A*1) so the right-hand side
is positive, rescale columns so the system is column-stochastic with a
probability right-hand side, then iterate the EM / Richardson-Lucy style
update

    x <- x * M^T (q / M x)

in rescaled coordinates, where M is column-stochastic and q is the rescaled
right-hand side.  Each step costs at most 4 * (nnz + m) flops, preserves
positivity and the simplex, and drives D(q, M x_n) monotonically down to its
infimum; on solvable systems the residual converges to zero.  The solve loop
runs it in residual form, free of the shift's rounding (_run_loop).
"""

from __future__ import annotations

import enum
import math
import time
from array import array
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import metrics
from .errors import (
    DimensionMismatch,
    NegativeEntry,
    NegativeInput,
    NonFiniteValue,
    NonPositiveRhs,
    NotSquare,
    NotSymmetric,
    SingularMatrix,
    TooLargeForDense,
    UnshiftableRow,
    ZeroColumn,
    ZeroDenominator,
)
from .sparse import SparseMatrix, as_vector, is_symmetric, spmv, spmv_transpose

__all__ = [
    "NonnegativeSystem",
    "RateCertificate",
    "ShiftedSystem",
    "SolveReport",
    "SolveStatus",
    "SolverConfig",
    "default_tolerance",
    "nna_solve",
    "nna_step",
    "nna_step_counted",
    "rate_certificate",
    "rescale",
    "shift",
]

_MAX_AUTO_RETRIES = 6
# stagnated_min_kl: the duality gap bound at an iterate is at most this share
# of its divergence
_CERTIFICATE_TOL = 1e-4
# rate_certificate inverts the rescaled matrix densely, so only up to this size
_CERTIFICATE_DENSE_LIMIT = 200
# general_solve's loop mixes the last _AA_WINDOW differences of iterates
# (nna_solve's mixes none), and accepts a mixed point whose divergence is at
# most the largest of the last _GLL_MEMORY accepted ones
_AA_WINDOW = 20
_GLL_MEMORY = 5
# the mixing solve drops directions below this share of the scaled Gram
# matrix's largest eigenvalue: three orders above the relative rounding of a
# Gram entry at n = 1e5 (n * 2^-52 ~ 2e-11)
_MIXING_RCOND = 1e-8


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    STAGNATED_MIN_KL = "stagnated_min_kl"
    BREAKDOWN = "breakdown"


@dataclass
class SolverConfig:
    """Knobs shared by all solvers.

    eps_tol None means the hybrid default 1e-8 * (1 + ||b||_2).  t_shift None
    selects the automatic positivity shift; any float >= 0 is used verbatim.
    stagnated_min_kl rests on a duality gap certificate that nna_solve and
    general_solve check at every iterate; it has no knob here.
    """

    eps_tol: float | None = None
    t_shift: float | None = None
    max_iter: int = 100_000

    def __post_init__(self):
        if self.eps_tol is not None and not self.eps_tol > 0.0:
            raise ValueError("eps_tol must be positive")
        if self.t_shift is not None and not 0.0 <= self.t_shift < math.inf:
            raise ValueError("t_shift must be finite and nonnegative")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")


@dataclass
class SolveReport:
    """Outcome of one solve: final iterate plus per-iteration traces.

    Both traces are float64 arrays backed by the typed buffers the run
    filled, 8 bytes an entry, not copies of them.  residual_trace[n] is
    ||A x_n - b||_2 on the original system and has length iterations + 1
    (iterate 0 included).  kl_trace[n] is D(b_tilde, b_tilde_n) on the
    rescaled system, for iterate 0 (the start as given, off the simplex) at
    the start scaled onto the simplex; it is empty for solvers that do not
    track a divergence.

    Every solver's report is built by one method (_ResidualGate.report): the
    last residual_trace entry is the residual of the returned x (for
    general_solve, mapped through the tie block), iterations is the trace
    length minus one, and matvec_count counts every product with the
    iteration matrix (P for an embedded system), each recomputation
    included, summed over every auto-shift attempt.  Not counted are
    general_solve's products with the tie block (A's negative entries only,
    13.7% of nnz(P) on the benchmark's mixed-mtx instance), which map each
    traced residual to the original system.  t_shift is the positivity
    shift of the kept attempt and attempts the number of shifts tried (1 +
    auto-shift retries); solvers that do not shift leave them None and 0.
    rejections counts the mixed points general_solve's safeguard replaced
    by the plain step in the kept attempt; every other solver leaves it 0.
    """

    status: SolveStatus
    iterations: int
    x: np.ndarray
    residual_trace: np.ndarray
    kl_trace: np.ndarray = field(default_factory=lambda: np.empty(0))
    elapsed_ns: int = 0
    matvec_count: int = 0
    diagnostic: str | None = None
    t_shift: float | None = None
    attempts: int = 0
    rejections: int = 0


@dataclass
class NonnegativeSystem:
    """Column-stochastic rescaling of (A, b): a_tilde x_tilde = b_tilde.

    col_scale holds the original column sums and b_total the sum of b, the
    data needed to map simplex coordinates back: x_j = x_tilde_j * b_total / col_scale_j.
    a_tilde = A diag(1 / col_scale) is built on first use.
    """

    A: SparseMatrix
    b_tilde: np.ndarray
    col_scale: np.ndarray
    b_total: float

    @cached_property
    def a_tilde(self) -> SparseMatrix:
        A = self.A  # immutable, so the rescaled matrix shares its index arrays
        values = A.values / self.col_scale[A.entry_col]
        return SparseMatrix._trusted(A.nrows, A.ncols, A.col_ptr, A.row_idx, values, A.entry_col)

    def recover(self, x_tilde: np.ndarray) -> np.ndarray:
        return x_tilde * (self.b_total / self.col_scale)


@dataclass
class ShiftedSystem:
    """Positivity shift: solve A x_t = b_t with x_t = x + t*1, b_t = b + t*A*1."""

    t: float
    b_shifted: np.ndarray
    a_row_sums: np.ndarray


@dataclass
class RateCertificate:
    """Certified asymptotic contraction factor of the divergence to the fixed point.

    delta = min_j x_tilde*_j / (3 * ||a_tilde^{-1}||_1^2); once iterates are
    near the fixed point, D(x_tilde*, x_tilde_{n+1}) <= (1 - delta) * D(x_tilde*, x_tilde_n).
    """

    delta: float
    a_inv_norm1: float
    min_xstar: float


@np.errstate(over="ignore")  # the plain sum of squares may overflow; that case is handled here
def _norm(v: np.ndarray) -> float:
    """||v||_2 as np.linalg.norm computes it, scaled by the largest |v_i| where
    the plain sum of squares overflows or falls below 1e-280, near the
    subnormal range, where small squares lose digits or flush to 0."""
    norm = math.sqrt(v.dot(v))
    if not 1e-140 < norm < math.inf:
        big = float(np.abs(v).max(initial=0.0))
        if 0.0 < big < math.inf:
            u = v / big
            norm = big * math.sqrt(u.dot(u))
    return norm


def default_tolerance(b) -> float:
    """Hybrid absolute/relative default stopping tolerance."""
    return 1e-8 * (1.0 + _norm(np.asarray(b, dtype=np.float64)))


def _setup(A: SparseMatrix, b, x0, cfg, start, square=True, symmetric=False):
    """The checks and defaults every solver starts with: the shape of A, then
    b and x0 (shape before values), then symmetry if asked.  Returns
    (b, x, cfg, eps) with x = start(A.ncols) when x0 is None; x0 itself is
    not copied."""
    if square and A.nrows != A.ncols:
        raise NotSquare(f"solver requires a square matrix, got {A.nrows}x{A.ncols}")
    b = as_vector(b, "b", A.nrows)
    x = start(A.ncols) if x0 is None else as_vector(x0, "x0", A.ncols)
    if symmetric and not is_symmetric(A):
        raise NotSymmetric("solver requires a symmetric matrix")
    cfg = cfg if cfg is not None else SolverConfig()
    eps = cfg.eps_tol if cfg.eps_tol is not None else default_tolerance(b)
    return b, x, cfg, eps


class _ResidualGate:
    """The stopping rule of every solver, the residual trace it reads, and
    the report every run ends with.

    values holds one residual norm per iterate.  Without recompute every
    entry is exact; with it, an entry add() appends is carried and drifts
    from ||b - A x|| by rounding.  status() confirms a carried last entry
    that reaches the gate (eps at first), is not finite or ends the run: it
    becomes the norm of recompute(x) = b - A x, one product counted in
    recomputes, and residual becomes that vector.  A failed confirmation of
    an entry that reached the gate lowers the gate by the observed ratio,
    unless the entry is 0: that ratio says nothing about drift, and a gate
    of 0 would confirm no later entry above 0.
    On a confirmed entry, not finite is BREAKDOWN, within eps CONVERGED,
    then max_iter MAX_ITERATIONS.  report() confirms a carried last entry
    too, so every report ends on the residual of the returned x.
    """

    def __init__(self, eps: float, recompute=None, first=None):
        self.values = array("d")
        self.eps = self.gate = eps
        self.recompute = recompute
        self.recomputes = 0
        self.residual = first  # the exact residual of the start, if given
        if first is not None:
            self.values.append(_norm(first))
        self.carried = False

    def add(self, residual: np.ndarray) -> None:
        """Trace the residual vector of the next iterate."""
        self.residual = residual
        self.values.append(_norm(residual))
        self.carried = self.recompute is not None

    def confirm(self, x) -> None:
        """Replace a carried last entry by the recomputed residual of x."""
        if self.carried:
            carried = self.values[-1]
            self.residual = self.recompute(x)
            self.values[-1] = exact = _norm(self.residual)
            self.recomputes += 1
            self.carried = False
            if 0.0 < carried <= self.gate and exact > self.eps:
                self.gate = carried * self.eps / exact

    def status(self, x, n: int, max_iter: int) -> SolveStatus | None:
        """Status the run ends with at x after n iterations, or None to go on."""
        ending = n >= max_iter
        last = self.values[-1]
        if self.carried and (last <= self.gate or ending or not math.isfinite(last)):
            self.confirm(x)
            last = self.values[-1]
        if self.carried:
            return None
        if not math.isfinite(last):
            return SolveStatus.BREAKDOWN
        if last <= self.eps:
            return SolveStatus.CONVERGED
        if ending:
            return SolveStatus.MAX_ITERATIONS
        return None

    def report(self, status, x, started, products, **fields) -> SolveReport:
        """The report of a run that ends with status at x; started is its
        perf_counter_ns at entry and products the products it made besides
        the gate's recomputations.  fields fill the other report fields."""
        self.confirm(x)
        return SolveReport(
            status=status,
            iterations=len(self.values) - 1,
            x=x,
            residual_trace=np.frombuffer(self.values),
            elapsed_ns=time.perf_counter_ns() - started,
            matvec_count=products + self.recomputes,
            **fields,
        )


def _require_nonnegative(A: SparseMatrix):
    if A.values.size and float(A.values.min()) < 0.0:
        raise NegativeEntry("matrix has negative entries; embed it first (general_solve)")


def rescale(A: SparseMatrix, b) -> NonnegativeSystem:
    """Rescale a nonnegative system to column-stochastic form with b on the simplex."""
    b = as_vector(b, "b", A.nrows)
    _require_nonnegative(A)
    s = A.col_sums
    zero = np.flatnonzero(s == 0.0)
    if zero.size:
        raise ZeroColumn(int(zero[0]))
    nonpos = np.flatnonzero(b <= 0.0)
    if nonpos.size:
        raise NonPositiveRhs(int(nonpos[0]))
    b_total = float(b.sum())
    if not math.isfinite(b_total):
        raise NonFiniteValue("b sums to infinity; its rescaled entries would vanish")
    return NonnegativeSystem(A, b / b_total, s.copy(), b_total)


def shift(A: SparseMatrix, b, t: float | None = None) -> ShiftedSystem:
    """Shift (x, b) by a finite t >= 0 so the right-hand side becomes positive.

    t=None picks the automatic value: zero when b is already positive, else
    twice the smallest shift that clears every row by a data-driven margin,
    doubled until b_t > 0 and t is at least the crude solution-scale estimate
    ||b||_1 / min_j a_(.j) (a proxy for keeping x + t*1 positive).  Where
    that doubling cannot end (a zero t, when a row sum overflows, or a t
    that would pass the largest float) it raises NonFiniteValue.
    """
    b = as_vector(b, "b", A.nrows)
    _require_nonnegative(A)
    # bincount of no entries comes back int64, hence the cast
    row_sums = np.bincount(A.row_idx, A.values, A.nrows).astype(np.float64, copy=False)
    if t is None:
        if np.all(b > 0.0):
            return ShiftedSystem(0.0, b.copy(), row_sums)
        stuck = np.flatnonzero((row_sums <= 0.0) & (b <= 0.0))
        if stuck.size:
            raise UnshiftableRow(int(stuck[0]))
        col_min = float(A.col_sums.min()) if A.ncols else 0.0
        if col_min <= 0.0:
            raise ZeroColumn(int(np.flatnonzero(A.col_sums == 0.0)[0]))
        eps_b = max(1.0, float(np.abs(b).max())) * 1e-3
        pos = row_sums > 0.0
        base = max(0.0, float(((eps_b - b[pos]) / row_sums[pos]).max()))
        t_val = 2.0 * base
        scale = float(np.abs(b).sum()) / col_min
        while not (t_val >= scale and np.all(b + t_val * row_sums > 0.0)):
            if not t_val < 2.0 * t_val < math.inf:
                raise NonFiniteValue(f"the automatic shift cannot grow from t = {t_val:g} to a finite value that clears b")
            t_val *= 2.0
    else:
        t_val = float(t)
        if t_val < 0.0:
            raise NegativeInput("shift t must be nonnegative")
        if not math.isfinite(t_val):
            raise NonFiniteValue(f"shift t must be finite, got {t_val}")
    b_t = b + t_val * row_sums
    bad = np.flatnonzero(b_t <= 0.0)  # none for the automatic t, which clears every row
    if bad.size:
        i = int(bad[0])
        if row_sums[i] <= 0.0:
            raise UnshiftableRow(i)
        raise NonPositiveRhs(i, f"t={t_val} is too small to make b_t positive")
    return ShiftedSystem(t_val, b_t, row_sums)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den; a zero in den is a breakdown (rescale keeps num = b_tilde > 0)."""
    zero = np.flatnonzero(den == 0.0)
    if zero.size:
        raise ZeroDenominator(int(zero[0]))
    return num / den


def nna_step(system: NonnegativeSystem, x_n: np.ndarray) -> np.ndarray:
    """One multiplicative update x_{n+1} = x_n * a_tilde^T (b_tilde / a_tilde x_n).

    Expects x_n > 0 on the simplex (rescaled coordinates); the output stays
    there.  Costs at most 4 * (nnz + m) flops.
    """
    b_n = spmv(system.a_tilde, x_n)
    return x_n * spmv_transpose(system.a_tilde, _ratio(system.b_tilde, b_n))


def nna_step_counted(system: NonnegativeSystem, x_n: np.ndarray) -> tuple[np.ndarray, int]:
    """Pure-Python twin of :func:`nna_step` that tallies every flop it performs.

    Returns (x_next, flops) where flops counts each multiply, add and divide.
    Slow; intended for instrumentation tests, not solving.
    """
    A = system.a_tilde
    m1, m2 = A.nrows, A.ncols
    ptr, rows, vals = A.col_ptr, A.row_idx, A.values
    bt = system.b_tilde
    flops = 0

    b_n = [0.0] * m1
    for j in range(m2):
        xj = x_n[j]
        for p in range(ptr[j], ptr[j + 1]):
            b_n[rows[p]] += vals[p] * xj
            flops += 2
    c = [0.0] * m1
    for i in range(m1):
        if b_n[i] == 0.0:
            raise ZeroDenominator(i)
        c[i] = bt[i] / b_n[i]
        flops += 1
    x_next = [0.0] * m2
    for j in range(m2):
        s = 0.0
        for p in range(ptr[j], ptr[j + 1]):
            s += vals[p] * c[rows[p]]
            flops += 2
        x_next[j] = s * x_n[j]
        flops += 1
    return np.array(x_next), flops


def _breakdown(exc: Exception, ncols: int, started: int) -> SolveReport:
    return SolveReport(
        status=SolveStatus.BREAKDOWN,
        iterations=0,
        x=np.full(ncols, np.nan),
        residual_trace=np.empty(0),
        elapsed_ns=time.perf_counter_ns() - started,
        diagnostic=f"{type(exc).__name__}: {exc}",
    )


def _divergence(w: np.ndarray, r: np.ndarray) -> float:
    """D(w, w - r) = sum w (delta - log1p delta) with delta = -r / w."""
    delta = np.divide(r, w)
    return float(w @ np.subtract(np.negative(delta, out=delta), np.log1p(delta), out=delta))


def _mixing_weights(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """gamma minimizing ||f - dF^T gamma|| from gram = dF dF^T and rhs = dF f.

    The columns are scaled to unit norm first, and directions whose scaled
    eigenvalue falls below _MIXING_RCOND of the largest are dropped, as a
    least-squares solve on dF itself drops its tiny singular values.
    """
    scale = np.sqrt(np.diagonal(gram))
    scale[scale == 0.0] = 1.0
    y = np.linalg.lstsq(gram / np.outer(scale, scale), rhs / scale, rcond=_MIXING_RCOND)[0]
    return y / scale


# a zero or non-finite A x shows as a non-finite divergence, not as warnings
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _run_loop(A, b, t, row_sums, x_start, max_iter, eps, tie, window, started):
    """Iterate from a fixed shift; returns the report of the run.

    The paper's update x_tilde <- x_tilde * M^T (q / M x_tilde), for
    x_tilde = (x + t) s / B, M = A diag(1 / s), q = b_t / B, b_t = b + t A1
    (A1 = row_sums, s the column sums, B the total of b_t), runs in x with A:

        x <- x + (x + t) g1,   g1 = A^T (r / A (x + t)) / s,   r = b - A x,

    the same in exact arithmetic as M^T 1 = 1.  The product A x of each
    iterate gives its exact residual r, which the gate traces and never
    recomputes (mapped through tie, the m1 x J top block of an embedded
    P's slack columns, to r[:m1] - tie r[m1:]), and A (x + t) = A x + t A1.
    Where g1_j < -1/2, 1 + g1_j has lost its digits: the step takes
    (x_j + t) g_j - t there, with the paper's g = A^T (b_t / A (x + t)) / s.

    With window 0 (nna_solve) x_(n+1) is the plain step
    G(x_n) = x_n + (x_n + t) g1.  With window w > 0 (general_solve),
    Anderson mixing (Walker & Ni 2011, SIAM J. Numer. Anal. 49:1715; for EM,
    Henderson & Varadhan 2019, J. Comput. Graph. Stat. 28:834) over the last
    w differences dG of plain steps and dF of f_n = (G(x_n) - x_n) s / 2^e
    (the step in x_tilde in units of 2^e / B, 2^e the power of two in
    (B, 2B]: exact, and dF dF^T stays finite at any B) proposes
    G(x_n) - dG^T gamma, gamma = argmin ||f_n - dF^T gamma||, scaled back
    onto s^T (x + t) = B.  The safeguard
    (Grippo, Lampariello & Lucidi 1986, SIAM J. Numer. Anal. 23:707) takes
    it when x + t > 0 and its divergence is at most the largest of the last
    _GLL_MEMORY accepted ones; else the plain step, which never raises the
    divergence, and rejections counts one (the history stays).

    Products: A x_0, then per iteration A^T of the ratio and the next
    iterate's A x, which for an accepted mixed point its divergence test
    made; one more per mixed point that test rejects (one with x + t <= 0
    costs none) and per paper's g.  D(q, M x_tilde) = sum q (delta - log1p
    delta), delta = -r / b_t, is traced at every iterate, iterate 0's at the
    start scaled onto the simplex.  Certificate (Csiszar & Tusnady 1984): by
    convexity D(x_n) - D* <= max_j g1_j - 1^T r / B = gap, read at every
    n >= 1; gap <= _CERTIFICATE_TOL * D(x_n) gives D* > 0 (no solution), and
    the run stops as stagnated_min_kl.  On a consistent system D <= gap, so
    the rule cannot fire once gap is floored at its rounding from r's,
    2^-52 max_i (|b_i| + |(A x)_i|) / (A (x + t))_i.
    """
    t_rows = t * row_sums
    b_t = b + t_rows
    # rescale's typed checks and B; none of its vectors
    s, b_total = A.col_sums, rescale(A, b_t).b_total
    b_sum = float(b.sum())
    s_unit = s * math.ldexp(1.0, -math.frexp(b_total)[1])

    def original(r):
        return r if tie is None else r[: tie.nrows] - spmv(tie, r[tie.nrows :])

    def residual(x):
        nonlocal made
        made += 1
        ax = spmv(A, x)
        return b - ax, np.add(ax, t_rows, out=ax)  # then A x becomes A (x + t)

    gate, kl_trace = _ResidualGate(eps), array("d")
    # ring buffers: row i < min(stored, window) holds a pair (dG, dF), the
    # latest in row (stored - 1) % window; G and f of the last iterate wait
    # in g_last and f_last until the next one finishes their pair
    dg = np.empty((window, s.size))
    df = np.empty((window, s.size))
    gram = np.empty((window, window))  # dF dF^T over the stored rows
    stored = 0  # pairs stored so far
    # iterate 0 is the start exactly as given (_solve keeps x + t positive)
    x = x_start.copy()
    made = 0  # products with A
    r, den = residual(x)
    kl = None  # the divergence of the iterate, where its test computed it
    rejections = n = 0
    while True:
        gate.values.append(_norm(original(r)))  # exact: the gate keeps no vector
        if kl is None:
            # iterate 0's at the start scaled onto the simplex
            kl = _divergence(b_t, r if n else b_t - den * (b_total / den.sum())) / b_total
            if not math.isfinite(kl):
                # as b_t > 0, any zero, negative or non-finite A (x + t) makes
                # the divergence non-finite; the typed checks name the defect
                _ratio(b_t, den)
                kl = metrics.kl_divergence(b_t, den) / b_total
        kl_trace.append(kl)
        status = gate.status(x, n, max_iter)
        if status is not None:
            break
        g1 = spmv_transpose(A, r / den)
        made += 1
        g1 /= s
        gap = float(g1.max()) - float(r.sum()) / b_total
        # iterate 0 is off the simplex, where the rule's D is not the one bounded
        if n and gap <= _CERTIFICATE_TOL * kl:
            gap = max(gap, 2.0**-52 * float(((np.abs(b) + np.abs(b - r)) / den).max()))
            if gap <= _CERTIFICATE_TOL * kl:
                status = SolveStatus.STAGNATED_MIN_KL
                break
        low = g1 < -0.5 if g1.min() < -0.5 else None
        step = np.multiply(x + t, g1, out=g1)
        plain = x + step
        if low is not None:
            g = spmv_transpose(A, b_t / den)
            made += 1
            plain[low] = (x[low] + t) * (g[low] / s[low]) - t
            step[low] = plain[low] - x[low]
        r = den = None
        if window:
            # G(c x_tilde) = G(x_tilde): iterate 0 enters scaled onto the simplex
            f = step if n else step + (x + t) * (1.0 - b_total / (s @ (x + t)))
            f *= s_unit
            if n:
                slot = stored % window
                np.subtract(plain, g_last, out=dg[slot])
                np.subtract(f, f_last, out=df[slot])
                stored += 1
                w = min(stored, window)
                gram[slot, :w] = gram[:w, slot] = df[:w] @ df[slot]
                mixed = _mixing_weights(gram[:w, :w], df[:w] @ f) @ dg[:w]
                np.subtract(plain, mixed, out=mixed)
                if mixed.min() > -t:
                    # s^T (x + t) = B in exact arithmetic; the defect, from s^T x, holds no t
                    sx = s @ mixed
                    mixed *= b_total / (b_total - b_sum + sx)
                    mixed += t * ((b_sum - sx) / (b_total - b_sum + sx))
                    r_mixed, den_mixed = residual(mixed)
                    kl_mixed = _divergence(b_t, r_mixed) / b_total
                    if kl_mixed <= max(kl_trace[-_GLL_MEMORY:]):
                        r, den, kl = r_mixed, den_mixed, kl_mixed
                rejections += r is None
            g_last, f_last = plain, f
        n += 1
        if r is None:
            x, kl = plain, None
            r, den = residual(x)
        else:
            x = mixed

    stagnated = status is SolveStatus.STAGNATED_MIN_KL
    diagnostic = f"certificate at iterate {n}: D = {kl:.6e}, gap = max g - 1 = {gap:.3e}" if stagnated else None
    return gate.report(
        status, x, started, made, kl_trace=np.frombuffer(kl_trace), diagnostic=diagnostic, t_shift=t, rejections=rejections
    )


def nna_solve(A: SparseMatrix, b, x0=None, cfg: SolverConfig | None = None) -> SolveReport:
    """Solve A x = b for nonnegative A by shift, rescale and multiplicative iteration.

    b may have any sign (the shift is applied internally; the loop iterates
    the un-shifted x, and traces b - A x_n exactly).  Terminates when ||A
    x_n - b||_2 <= eps_tol (converged), at max_iter, or as stagnated_min_kl
    once the EM duality gap certifies that the system has no solution and
    x_n is within 1e-4 D of the minimal divergence D*; the diagnostic gives
    D and the gap.  The automatic shift is raised to -2 min(x0) (to 1 if
    min(x0) = 0) when it would leave an entry of x0 + t*1 at or below 0; an
    explicit t that does raises NegativeInput.  When the automatic shift is
    positive and the run stagnates, the shift is doubled and the solve
    retried a bounded number of times, keeping the best attempt; its
    matvec_count sums the products of every attempt.  Explicit t runs, and
    unshifted runs (b > 0 and x0 > 0), are never retried.  The shapes and
    values of A, b and x0 are checked first, and their defects raise.  Setup
    defects found after that (zero column, unshiftable row, zero row with
    positive b, an automatic shift that cannot stay finite) and values that
    overflow during the run come back as a BREAKDOWN report carrying a
    diagnostic instead of an exception.
    """
    return _solve(A, b, x0, cfg, None, 0)


def _solve(A, b, x0, cfg, tie, window) -> SolveReport:
    """nna_solve on A through _run_loop with the given Anderson window (0 for the
    plain update), residuals mapped through the tie block when not None."""
    started = time.perf_counter_ns()
    b_arr, x_start, cfg, eps = _setup(A, b, x0, cfg, np.ones, square=False)
    try:
        shifted = shift(A, b_arr, cfg.t_shift)
    except (NonFiniteValue, ZeroColumn, UnshiftableRow) as exc:
        return _breakdown(exc, A.ncols, started)
    auto = cfg.t_shift is None
    t, row_sums, shifted = shifted.t, shifted.a_row_sums, None  # the loop forms b + t A1
    low = float(x_start.min(initial=math.inf))
    if low + t <= 0.0:
        if not auto:
            # general_solve starts each slack at -x0_j, so only a larger t helps there
            raise NegativeInput(f"x0 + t*1 must be positive: raise t above {-low:g}")
        # twice the start's deficit; a zero entry at t = 0 has none, and any
        # t > 0 clears it; retries double from there
        t = -2.0 * low if low < 0.0 else 1.0

    best, matvecs, attempt = None, 0, 0
    while True:
        try:
            report = _run_loop(A, b_arr, t, row_sums, x_start, cfg.max_iter, eps, tie, window, started)
        except (NonFiniteValue, ZeroColumn, ZeroDenominator) as exc:
            return replace(_breakdown(exc, A.ncols, started), matvec_count=matvecs, attempts=attempt + 1)
        matvecs += report.matvec_count
        if best is None or report.residual_trace[-1] < best.residual_trace[-1]:
            best = report
        stagnated = report.status is SolveStatus.STAGNATED_MIN_KL
        if not (auto and t > 0.0 and stagnated and attempt < _MAX_AUTO_RETRIES):
            break
        attempt += 1
        t *= 2.0
    return replace(
        best, elapsed_ns=time.perf_counter_ns() - started, matvec_count=matvecs, attempts=attempt + 1
    )


def rate_certificate(A: SparseMatrix, x_star) -> RateCertificate:
    """Contraction certificate delta = min_j x_tilde*_j / (3 ||a_tilde^{-1}||_1^2).

    Uses a dense inverse of the rescaled matrix, so it is restricted to square
    systems of at most _CERTIFICATE_DENSE_LIMIT rows; intended for test
    harnesses, not production paths.
    """
    if A.nrows != A.ncols:
        raise DimensionMismatch("rate_certificate requires a square matrix")
    if A.nrows > _CERTIFICATE_DENSE_LIMIT:
        raise TooLargeForDense(f"m={A.nrows} exceeds the dense limit {_CERTIFICATE_DENSE_LIMIT}")
    _require_nonnegative(A)
    x_star = as_vector(x_star, "x_star", A.ncols)
    s = A.col_sums
    zero = np.flatnonzero(s == 0.0)
    if zero.size:
        raise ZeroColumn(int(zero[0]))
    b = spmv(A, x_star)
    b_total = float(b.sum())
    if b_total <= 0.0:
        raise NonPositiveRhs(0, "A x_star must have positive total mass")
    x_tilde = x_star * s / b_total
    if np.any(x_tilde <= 0.0):
        raise NegativeInput("rescaled x_star must be strictly positive")
    dense = A.to_dense() / s[np.newaxis, :]
    try:
        inv = np.linalg.inv(dense)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    norm1 = float(np.abs(inv).sum(axis=0).max())
    min_x = float(x_tilde.min())
    return RateCertificate(delta=min_x / (3.0 * norm1 * norm1), a_inv_norm1=norm1, min_xstar=min_x)
