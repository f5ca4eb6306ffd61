"""Multiplicative fixed-point solver for nonnegative linear systems.

The pipeline is: shift (x, b) -> (x + t*1, b + t*A*1) so the right-hand side
is positive, rescale columns so the system is column-stochastic with a
probability right-hand side, then iterate the EM / Richardson-Lucy style
update

    x <- x * M^T (q / M x)

in rescaled coordinates, where M is column-stochastic and q is the rescaled
right-hand side.  Each step costs at most 4 * (nnz + m) flops, preserves
positivity and the simplex, and drives D(q, M x_n) monotonically down to its
infimum; on solvable systems the residual converges to zero.
"""

from __future__ import annotations

import enum
import math
import time
from array import array
from dataclasses import dataclass, replace

import numpy as np

from . import metrics
from .errors import (
    DimensionMismatch,
    NegativeEntry,
    NegativeInput,
    NonFiniteValue,
    NonPositiveRhs,
    SingularMatrix,
    TooLargeForDense,
    UnshiftableRow,
    ZeroColumn,
    ZeroDenominator,
)
from .sparse import SparseMatrix, as_vector, spmv, spmv_transpose

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

_KL_FLOOR = 1e-300  # guards relative-drop ratios once the divergence underflows
_MAX_AUTO_RETRIES = 6
# stagnation: the relative KL drop stays below this for this many iterations
_STAGNATION_REL_DELTA = 1e-12
_STAGNATION_WINDOW = 50
# the solve loop's block of ratio rows holds at most this many entries (32 KB)
_BLOCK_ENTRIES = 4096


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
    Stagnation fires when the KL trace drops by a relative factor below
    1e-12 for 50 consecutive iterations while the residual is still above
    tolerance.
    """

    eps_tol: float | None = None
    t_shift: float | None = None
    max_iter: int = 100_000

    def __post_init__(self):
        if self.eps_tol is not None and not self.eps_tol > 0.0:
            raise ValueError("eps_tol must be positive")
        if self.t_shift is not None and self.t_shift < 0.0:
            raise ValueError("t_shift must be nonnegative")
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
    track a divergence.  matvec_count counts products with the iteration
    matrix.  For nna_solve and general_solve that is the matrix
    the loop iterates (P for an embedded system), and the count also holds
    the products that recompute the residual of the returned x (one per
    solve, plus one per failed convergence recheck), summed over every
    auto-shift attempt; the last residual_trace entry is that recomputed
    value.  general_solve maps each tracked residual to the original system
    through the tie block of P, a product with A's negative entries only
    (13.7% of nnz(P) on the benchmark's mixed-mtx instance), which is not
    counted.  t_shift is the positivity shift of the kept attempt and
    attempts the number of shifts tried (1 + auto-shift retries); solvers
    that do not shift leave them None and 0.
    """

    status: SolveStatus
    iterations: int
    x: np.ndarray
    residual_trace: np.ndarray
    kl_trace: np.ndarray
    elapsed_ns: int
    matvec_count: int = 0
    diagnostic: str | None = None
    t_shift: float | None = None
    attempts: int = 0


@dataclass
class NonnegativeSystem:
    """Column-stochastic rescaling of (A, b): a_tilde x_tilde = b_tilde.

    col_scale holds the original column sums and b_total the sum of b, the
    data needed to map simplex coordinates back: x_j = x_tilde_j * b_total / col_scale_j.
    """

    a_tilde: SparseMatrix
    b_tilde: np.ndarray
    col_scale: np.ndarray
    b_total: float

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


def _require_nonnegative(A: SparseMatrix):
    if A.values.size and float(A.values.min()) < 0.0:
        raise NegativeEntry("matrix has negative entries; embed it first (general_solve)")


def rescale(A: SparseMatrix, b) -> NonnegativeSystem:
    """Rescale a nonnegative system to column-stochastic form with b on the simplex."""
    b = as_vector(b, "b")
    if b.shape != (A.nrows,):
        raise DimensionMismatch(f"b has length {b.size}, expected {A.nrows}")
    _require_nonnegative(A)
    s = A.col_sums
    zero = np.flatnonzero(s == 0.0)
    if zero.size:
        raise ZeroColumn(int(zero[0]))
    nonpos = np.flatnonzero(b <= 0.0)
    if nonpos.size:
        raise NonPositiveRhs(int(nonpos[0]))
    # A is immutable, so the rescaled matrix shares its index arrays
    a_tilde = SparseMatrix._trusted(
        A.nrows, A.ncols, A.col_ptr, A.row_idx, A.values / s[A.entry_col], A.entry_col
    )
    b_total = float(b.sum())
    if not math.isfinite(b_total):
        raise NonFiniteValue("b sums to infinity; its rescaled entries would vanish")
    return NonnegativeSystem(a_tilde, b / b_total, s.copy(), b_total)


def shift(A: SparseMatrix, b, t: float | None = None) -> ShiftedSystem:
    """Shift (x, b) by t >= 0 so the right-hand side becomes positive.

    t=None picks the automatic value: zero when b is already positive, else
    twice the smallest shift that clears every row by a data-driven margin,
    doubled until b_t > 0 and t is at least the crude solution-scale estimate
    ||b||_1 / min_j a_(.j) (a proxy for keeping x + t*1 positive).
    """
    b = as_vector(b, "b")
    if b.shape != (A.nrows,):
        raise DimensionMismatch(f"b has length {b.size}, expected {A.nrows}")
    _require_nonnegative(A)
    row_sums = spmv(A, np.ones(A.ncols))
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
        while not (np.all(b + t_val * row_sums > 0.0) and t_val >= scale):
            t_val *= 2.0
    else:
        t_val = float(t)
        if t_val < 0.0:
            raise NegativeInput("shift t must be nonnegative")
        b_t = b + t_val * row_sums
        bad = np.flatnonzero(b_t <= 0.0)
        if bad.size:
            i = int(bad[0])
            if row_sums[i] <= 0.0:
                raise UnshiftableRow(i)
            raise NonPositiveRhs(i, f"t={t_val} is too small to make b_t positive")
    return ShiftedSystem(t_val, b + t_val * row_sums, row_sums)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den; a zero in den is a breakdown (rescale keeps num = b_tilde > 0)."""
    zero = np.flatnonzero(den == 0.0)
    if zero.size:
        raise ZeroDenominator(int(zero[0]))
    return num / den


def _update(system: NonnegativeSystem, x_n: np.ndarray, c_n: np.ndarray) -> np.ndarray:
    """x_n * a_tilde^T c_n, the update given the ratio c_n = b_tilde / a_tilde x_n."""
    return x_n * spmv_transpose(system.a_tilde, c_n)


def nna_step(system: NonnegativeSystem, x_n: np.ndarray) -> np.ndarray:
    """One multiplicative update x_{n+1} = x_n * a_tilde^T (b_tilde / a_tilde x_n).

    Expects x_n > 0 on the simplex (rescaled coordinates); the output stays
    there.  Costs at most 4 * (nnz + m) flops.
    """
    b_n = spmv(system.a_tilde, x_n)
    return _update(system, x_n, _ratio(system.b_tilde, b_n))


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


def _breakdown(exc: Exception, b: np.ndarray, started: int) -> SolveReport:
    return SolveReport(
        status=SolveStatus.BREAKDOWN,
        iterations=0,
        x=np.full(b.shape, np.nan),
        residual_trace=np.empty(0),
        kl_trace=np.empty(0),
        elapsed_ns=time.perf_counter_ns() - started,
        diagnostic=f"{type(exc).__name__}: {exc}",
    )


class _Monitor:
    """The stopping rules, the recheck gate and the traces of one run.

    The map hands it blocks of rows, one row per iterate: the tracked
    residual, the ratio c = q / (M x_tilde) and the product M x_tilde.  A
    block ends at the first row whose residual reaches the gate, or after
    width() rows; under that bound stagnation and max_iter can only fire on
    a block's last row.  So the rules, applied to a block in row order, stop
    the run on the row a row-by-row check would, and no product is computed
    past it.  residual_of(x_tilde) is the residual of the x that x_tilde
    returns, recomputed from A and b with one product.
    """

    def __init__(self, q, eps, max_iter, residual_of):
        self.q, self.eps, self.max_iter, self.residual_of = q, eps, max_iter, residual_of
        self.gate = eps
        self.streak = 0
        self.prev_kl = None
        self.exact_products = 0
        # typed buffers: 8 bytes an iterate, not a float object and its pointer
        self.res_trace = array("d")
        self.kl_trace = array("d")

    def width(self, n: int, cap: int) -> int:
        """Rows the block whose first row is iterate n may hold, at most cap."""
        return min(_STAGNATION_WINDOW - self.streak, self.max_iter - n + 1, cap)

    def recheck(self, x_tilde) -> float:
        self.exact_products += 1
        return self.residual_of(x_tilde)

    def close(self, ratios, products, residuals, n, x_tilde):
        """Apply the rules to a block whose last row is iterate n at x_tilde.

        Returns the status that ends the run there, or None to go on.
        """
        q = self.q
        kls = np.add.reduce(q * np.log(ratios), axis=1).tolist()
        if not math.isfinite(sum(kls)):
            # as q > 0, any zero, negative or non-finite (M x_tilde)_i makes a
            # row's divergence non-finite; the typed checks name the defect
            for i, kl in enumerate(kls):
                if not math.isfinite(kl):
                    _ratio(q, products[i])
                    kls[i] = metrics.kl_divergence(q, products[i])
        if len(kls) == n + 1:
            # iterate 0 is the start as given, off the simplex; as M is
            # column-stochastic and q sums to 1, D(q, M x0 / sum(M x0)) at the
            # normalized start is row 0's sum plus log sum(M x0)
            kls[0] += math.log(products[0].sum())
        self.res_trace.fromlist(residuals)
        self.kl_trace.fromlist(kls)
        if residuals[-1] <= self.gate:
            exact = self.res_trace[-1] = self.recheck(x_tilde)
            if exact <= self.eps:
                return SolveStatus.CONVERGED
            self.gate = residuals[-1] * self.eps / exact
        streak, prev_kl = self.streak, self.prev_kl
        # iterate 0's entry is taken at its normalized start, not at the
        # iterate the loop holds, so the streak starts at iterate 1
        for kl in kls[1:] if len(kls) == n + 1 else kls:
            if prev_kl is not None:
                drop = (prev_kl - kl) / max(prev_kl, _KL_FLOOR)
                streak = streak + 1 if drop < _STAGNATION_REL_DELTA else 0
            prev_kl = kl
        self.streak, self.prev_kl = streak, prev_kl
        if streak >= _STAGNATION_WINDOW:
            return SolveStatus.STAGNATED_MIN_KL
        if n >= self.max_iter:
            return SolveStatus.MAX_ITERATIONS
        return None


# a zero or non-finite M x_tilde shows as a non-finite divergence, not as warnings
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _run_iteration(A, b, shifted, x_start, cfg, eps, tie):
    """Iterate from a fixed shift; returns a report without elapsed time filled in.

    The loop tracks r = b_total * (M x_tilde - q), which is A x - b in exact
    arithmetic.  For an embedded system (A = P, b = c, tie the m1 x J top
    block of P's slack columns) the residual of the original system is
    r[:m1] - tie r[m1:], and that is what is tracked; tie is None otherwise.
    Neither is the residual of the returned x = recover(x_tilde) - t: the
    subtraction of a large t cancels digits.  So once the tracked residual
    reaches the gate (eps at first), the residual of the returned x is
    recomputed from A and b; the run converges only if that value is within
    eps, else the gate is lowered by the observed ratio and the iteration
    goes on.  On any exit the last trace entry is the recomputed residual of
    the returned x.

    The loop is the map plus a _Monitor.  The map does, per row, the product
    M x_tilde, the tracked residual and its gate test, the ratio c = q / (M
    x_tilde) written into a row of a preallocated block, and the update
    through _update, which nna_step shares.  The monitor takes the block: one
    reduction gives every row's divergence sum q log c, and the typed checks
    of _ratio and kl_divergence run only on a row whose divergence is not
    finite.  A block holds at most _BLOCK_ENTRIES ratio entries, so it stays
    in cache; at m = 10 the stagnation window (50 rows) bounds it first.
    The arithmetic matches nna_step and kl_divergence bit for bit:
    sqrt(d.dot(d)) is what np.linalg.norm computes for a 1-D vector, and
    each row of the block reduction is what np.sum computes on that row.
    """
    t = shifted.t
    system = rescale(A, shifted.b_shifted)
    q = system.b_tilde
    x_t = x_start + t
    if np.any(x_t <= 0.0):
        raise NegativeInput("x0 + t*1 must be positive; raise t or choose x0 > 0")
    # iterate 0 is the shifted start exactly as given; the first update lands
    # on the probability simplex and every later iterate stays there
    xt = x_t * system.col_scale / system.b_total

    def original(r):
        return r if tie is None else r[: tie.nrows] - spmv(tie, r[tie.nrows :])

    def residual_of(x_tilde):
        return _norm(original(spmv(A, system.recover(x_tilde) - t) - b))

    monitor = _Monitor(q, eps, cfg.max_iter, residual_of)
    cap = max(1, _BLOCK_ENTRIES // max(1, q.size))
    block = np.empty((min(cap, _STAGNATION_WINDOW, cfg.max_iter + 1), q.size))
    rows = list(block)  # views, made once
    # looked up once: the row body is a handful of numpy calls, so each
    # attribute or global lookup it saves is a measurable share of it
    a_tilde, b_total = system.a_tilde, system.b_total
    sqrt, divide = math.sqrt, np.divide
    n = 0
    while True:
        width, gate = monitor.width(n, cap), monitor.gate
        products: list[np.ndarray] = []
        residuals: list[float] = []
        k = 0
        while True:
            b_n = spmv(a_tilde, xt)
            d = b_n - q if tie is None else original(b_n - q)
            resid = b_total * sqrt(d.dot(d))
            c_n = divide(q, b_n, rows[k])
            products.append(b_n)
            residuals.append(resid)
            k += 1
            if resid <= gate or k == width:
                break
            xt = _update(system, xt, c_n)
            n += 1
        status = monitor.close(block[:k], products, residuals, n, xt)
        if status is not None:
            break
        xt = _update(system, xt, c_n)
        n += 1

    if status is not SolveStatus.CONVERGED:
        monitor.res_trace[-1] = monitor.recheck(xt)
    return SolveReport(
        status=status,
        iterations=n,
        x=system.recover(xt) - t,
        residual_trace=np.frombuffer(monitor.res_trace),
        kl_trace=np.frombuffer(monitor.kl_trace),
        elapsed_ns=0,
        # one product per iterate, one per update, and the recomputed residuals
        matvec_count=2 * n + 1 + monitor.exact_products,
        t_shift=t,
    )


def nna_solve(A: SparseMatrix, b, x0=None, cfg: SolverConfig | None = None) -> SolveReport:
    """Solve A x = b for nonnegative A by shift, rescale and multiplicative iteration.

    b may have any sign (the shift is applied internally); the returned x is
    un-shifted.  Terminates when ||A x_n - b||_2 <= eps_tol (converged), at
    max_iter, or when the divergence trace stagnates, which on systems with
    no solution signals arrival at the minimal-KL point.  When the automatic
    shift was engaged (some b_i <= 0) and the run stagnates, the shift is
    doubled and the solve retried a bounded number of times, keeping the best
    attempt; its matvec_count sums the products of every attempt.  Explicit
    t and positive-b runs are never retried.  Setup defects (zero column,
    unshiftable row, zero row with positive b) and values that overflow
    during the run come back as a BREAKDOWN report carrying a diagnostic
    instead of an exception.
    """
    return _solve(A, b, x0, cfg, None)


def _solve(A, b, x0, cfg, tie) -> SolveReport:
    """nna_solve on A, with residuals mapped through the tie block when it is not None."""
    cfg = cfg if cfg is not None else SolverConfig()
    started = time.perf_counter_ns()
    b_arr = as_vector(b, "b")
    eps = cfg.eps_tol if cfg.eps_tol is not None else default_tolerance(b_arr)
    _require_nonnegative(A)

    try:
        shifted = shift(A, b_arr, cfg.t_shift)
    except (ZeroColumn, UnshiftableRow) as exc:
        return _breakdown(exc, b_arr, started)
    x_start = np.ones(A.ncols) if x0 is None else as_vector(x0, "x0")
    if x_start.shape != (A.ncols,):
        raise DimensionMismatch(f"x0 has length {x_start.size}, expected {A.ncols}")

    auto = cfg.t_shift is None
    best = None
    matvecs = 0
    attempt = 0
    while True:
        try:
            report = _run_iteration(A, b_arr, shifted, x_start, cfg, eps, tie)
        except (NonFiniteValue, ZeroColumn, ZeroDenominator, UnshiftableRow) as exc:
            return _breakdown(exc, b_arr, started)
        matvecs += report.matvec_count
        if best is None or report.residual_trace[-1] < best.residual_trace[-1]:
            best = report
        retry = (
            auto
            and shifted.t > 0.0
            and report.status is SolveStatus.STAGNATED_MIN_KL
            and attempt < _MAX_AUTO_RETRIES
        )
        if not retry:
            break
        attempt += 1
        t_next = 2.0 * shifted.t
        shifted = ShiftedSystem(t_next, b_arr + t_next * shifted.a_row_sums, shifted.a_row_sums)
    return replace(
        best, elapsed_ns=time.perf_counter_ns() - started, matvec_count=matvecs, attempts=attempt + 1
    )


def rate_certificate(A: SparseMatrix, x_star, dense_limit: int = 200) -> RateCertificate:
    """Contraction certificate delta = min_j x_tilde*_j / (3 ||a_tilde^{-1}||_1^2).

    Uses a dense inverse of the rescaled matrix, so it is restricted to small
    square systems; intended for test harnesses, not production paths.
    """
    if A.nrows != A.ncols:
        raise DimensionMismatch("rate_certificate requires a square matrix")
    if A.nrows > dense_limit:
        raise TooLargeForDense(f"m={A.nrows} exceeds the dense limit {dense_limit}")
    _require_nonnegative(A)
    x_star = as_vector(x_star, "x_star")
    if x_star.shape != (A.ncols,):
        raise DimensionMismatch("x_star length does not match the matrix")
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
