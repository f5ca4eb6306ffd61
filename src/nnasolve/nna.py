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
# stagnated_min_kl: on every iterate n with (n + 1) % stride == 0, the duality
# gap bound at x_(n-1) is at most this share of its divergence
_CERTIFICATE_STRIDE = 50
_CERTIFICATE_TOL = 1e-4
# the solve loop's block of ratio rows holds at most this many entries (32 KB)
_BLOCK_ENTRIES = 4096
# rate_certificate inverts the rescaled matrix densely, so only up to this size
_CERTIFICATE_DENSE_LIMIT = 200
# the accelerated loop mixes the last _AA_WINDOW differences of iterates, and
# accepts a mixed point whose divergence is at most the largest of the last
# _GLL_MEMORY accepted ones
_AA_WINDOW = 10
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
    stagnated_min_kl rests on a duality gap certificate checked every 50
    iterations by nna_solve and every iteration by general_solve; it has no
    knob here.
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

    Every solver stops through one rule (_ResidualGate): a carried residual
    is recomputed as b - A x once it reaches the gate or the run would end
    on it, and the run converges only on a recomputed value within eps, so
    the last residual_trace entry is the residual of the returned x (for
    general_solve, mapped through the tie block).  matvec_count counts every
    product with the iteration matrix (P for an embedded system), each
    recomputation included, summed over every auto-shift attempt; from a
    zero start no baseline makes one for the first residual, b.  Not counted
    are shift's row sums A 1, one per nna_solve or general_solve call, and
    general_solve's products with the tie block (A's negative entries only,
    13.7% of nnz(P) on the benchmark's mixed-mtx instance), which map each
    tracked and recomputed residual to the original system.  t_shift is the
    positivity shift of the kept attempt and
    attempts the number of shifts tried (1 + auto-shift retries); solvers
    that do not shift leave them None and 0.  rejections counts the mixed
    points general_solve's safeguard replaced by the plain step in the kept
    attempt; every other solver leaves it 0.
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
    rejections: int = 0


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
    """The stopping rule of every solver, and the residual trace it reads.

    values holds one residual norm per iterate.  Without recompute every
    entry is exact; with it, an entry add() appends is carried and drifts
    from ||b - A x|| by rounding (a caller that appends to values itself
    sets carried).  status() confirms a carried last entry
    that reaches the gate (eps at first), is not finite or ends the run: it
    becomes the norm of recompute(x) = b - A x, one product counted in
    recomputes, and residual becomes that vector.  A failed confirmation of
    an entry that reached the gate lowers the gate by the observed ratio,
    unless the entry is 0: that ratio says nothing about drift, and a gate
    of 0 would confirm no later entry above 0.
    On a confirmed entry, not finite is BREAKDOWN, within eps CONVERGED,
    then the caller's stop, then max_iter MAX_ITERATIONS; so every exit
    through status() or confirm() ends on the residual of the returned x.
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

    def status(self, x, n: int, max_iter: int, stop: SolveStatus | None = None) -> SolveStatus | None:
        """Status the run ends with at x after n iterations, or None to go on;
        stop is one the caller's own test gives here (nna's certificate)."""
        ending = stop is not None or n >= max_iter
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
            return SolveStatus.MAX_ITERATIONS if stop is None else stop
        return None


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
    # A is immutable, so the rescaled matrix shares its index arrays
    a_tilde = SparseMatrix._trusted(
        A.nrows, A.ncols, A.col_ptr, A.row_idx, A.values / s[A.entry_col], A.entry_col
    )
    b_total = float(b.sum())
    if not math.isfinite(b_total):
        raise NonFiniteValue("b sums to infinity; its rescaled entries would vanish")
    return NonnegativeSystem(a_tilde, b / b_total, s.copy(), b_total)


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


def _breakdown(exc: Exception, ncols: int, started: int) -> SolveReport:
    return SolveReport(
        status=SolveStatus.BREAKDOWN,
        iterations=0,
        x=np.full(ncols, np.nan),
        residual_trace=np.empty(0),
        kl_trace=np.empty(0),
        elapsed_ns=time.perf_counter_ns() - started,
        diagnostic=f"{type(exc).__name__}: {exc}",
    )


def _start_loop(A, b, shifted, x_start, eps, tie):
    """What both solve loops start from: the rescaled system, iterate 0, the
    map original(r) of a residual of A to one of the original system (r[:m1]
    - tie r[m1:] for an embedded system, r itself when tie is None), and the
    _ResidualGate whose recompute is the residual of the returned x."""
    system = rescale(A, shifted.b_shifted)
    # iterate 0 is the shifted start exactly as given (_solve keeps it
    # positive); the first update lands on the probability simplex
    xt = (x_start + shifted.t) * system.col_scale / system.b_total

    def original(r):
        return r if tie is None else r[: tie.nrows] - spmv(tie, r[tie.nrows :])

    gate = _ResidualGate(eps, lambda x_tilde: original(spmv(A, system.recover(x_tilde) - shifted.t) - b))
    return system, xt, original, gate


def _certificate_diagnostic(n: int, kl: float, gap: float) -> str:
    return f"certificate at iterate {n}: D = {kl:.6e}, gap = max g - 1 = {gap:.3e}"


# a zero or non-finite M x_tilde shows as a non-finite divergence, not as warnings
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _run_iteration(A, b, shifted, x_start, cfg, eps, tie):
    """Iterate from a fixed shift; returns a report without elapsed time filled in.

    The loop tracks r = b_total * (M x_tilde - q), which is A x - b in exact
    arithmetic.  For an embedded system (A = P, b = c, tie the m1 x J top
    block of P's slack columns) the residual of the original system is
    r[:m1] - tie r[m1:], and that is what is tracked; tie is None otherwise.
    Neither is the residual of the returned x = recover(x_tilde) - t: the
    subtraction of a large t cancels digits.  So every tracked residual is a
    carried entry of the run's _ResidualGate, whose recompute is the
    residual of the returned x from A and b: the run stops, and converges,
    as that gate decides, like every baseline.

    Each pass of the loop is one row, one iterate: the product M x_tilde,
    the tracked residual, the ratio c = q / (M x_tilde) written into a row of
    a preallocated block, and the update through _update, which nna_step
    shares.  The loop counts each product where it makes it; matvec_count
    adds the gate's recomputations.  The rows form blocks.  A block ends at
    the first row whose residual reaches the gate, or once it holds width
    rows; under that bound the certificate and max_iter can only fire on a
    block's last row.  There one reduction gives every row's divergence
    sum q log c, the typed checks of _ratio and kl_divergence run only on a
    row whose divergence is not finite, the certificate is tested, and the
    gate decides.  So the run stops on the row a row-by-row check would, and
    no product is computed past it.  A block holds at most _BLOCK_ENTRIES
    ratio entries, so it stays in cache; at m = 10 the certificate stride
    (50 rows) bounds it first.  The arithmetic matches nna_step and
    kl_divergence bit for bit: sqrt(d.dot(d)) is what np.linalg.norm
    computes for a 1-D vector, and each row of the block reduction is what
    np.sum computes on that row.

    Certificate (Csiszar & Tusnady 1984): for x on the simplex g . x = 1 with
    g = M^T (q / M x), so by convexity gap = max_j g_j - 1 >= D(x) - D*.  As
    x_n = x_(n-1) * g(x_(n-1)), the gap at x_(n-1) is max(x_n / x_(n-1)) - 1.
    gap <= _CERTIFICATE_TOL * D(x_(n-1)) gives D* > 0 (no solution) and
    D(x_n) - D* <= gap; on a consistent system D* = 0, so D <= gap and the
    rule cannot fire, and the 2^-52 floor keeps a rounded fixed point out.
    """
    t = shifted.t
    system, xt, original, gate = _start_loop(A, b, shifted, x_start, eps, tie)
    q = system.b_tilde
    max_iter = cfg.max_iter
    cap = max(1, _BLOCK_ENTRIES // max(1, q.size))
    block = np.empty((min(cap, _CERTIFICATE_STRIDE, max_iter + 1), q.size))
    rows = list(block)  # views, made once
    # looked up once: the row body is a handful of numpy calls, so each
    # attribute or global lookup it saves is a measurable share of it
    a_tilde, b_total = system.a_tilde, system.b_total
    sqrt, divide = math.sqrt, np.divide
    bound = gate.gate  # the rows test the gate through this local copy
    # typed buffers: 8 bytes an iterate, not a float object and its pointer
    res_trace, kl_trace = gate.values, array("d")
    products: list[np.ndarray] = []
    made = 0  # products with a_tilde
    n = k = 0  # the iterate, and its row in the open block
    while True:
        if k == 0:
            width = min(_CERTIFICATE_STRIDE - n % _CERTIFICATE_STRIDE, max_iter - n + 1, cap)
        b_n = spmv(a_tilde, xt)
        made += 1
        d = b_n - q if tie is None else original(b_n - q)
        resid = b_total * sqrt(d.dot(d))
        c_n = divide(q, b_n, rows[k])
        products.append(b_n)
        res_trace.append(resid)
        k += 1
        if resid <= bound or k == width:
            # the block ends on iterate n
            kls = np.add.reduce(q * np.log(block[:k]), axis=1).tolist()
            if not math.isfinite(sum(kls)):
                # as q > 0, any zero, negative or non-finite (M x_tilde)_i makes
                # a row's divergence non-finite; the typed checks name the defect
                for i, kl in enumerate(kls):
                    if not math.isfinite(kl):
                        _ratio(q, products[i])
                        kls[i] = metrics.kl_divergence(q, products[i])
            if k == n + 1:
                # iterate 0 is the start as given, off the simplex; as M is
                # column-stochastic and q sums to 1, D(q, M x0 / sum(M x0)) at
                # the normalized start is row 0's sum plus log sum(M x0)
                kls[0] += math.log(products[0].sum())
            kl_trace.fromlist(kls)
            stop = None
            if (n + 1) % _CERTIFICATE_STRIDE == 0:
                # the stride keeps n >= 2, so x_(n-1) is on the simplex
                gap = max(float((xt / x_prev).max()) - 1.0, 2.0**-52)
                kl = kl_trace[n - 1]
                if gap <= _CERTIFICATE_TOL * kl:
                    stop = SolveStatus.STAGNATED_MIN_KL
            gate.carried = True  # the rows append tracked residuals
            status = gate.status(xt, n, max_iter, stop)
            if status is not None:
                break
            bound = gate.gate
            products.clear()
            k = 0
        x_prev, xt = xt, _update(system, xt, c_n)
        made += 1
        n += 1

    diagnostic = _certificate_diagnostic(n - 1, kl, gap) if status is SolveStatus.STAGNATED_MIN_KL else None
    return SolveReport(
        status=status,
        iterations=n,
        x=system.recover(xt) - t,
        residual_trace=np.frombuffer(res_trace),
        kl_trace=np.frombuffer(kl_trace),
        elapsed_ns=0,
        matvec_count=made + gate.recomputes,
        diagnostic=diagnostic,
        t_shift=t,
    )


def _divergence(q: np.ndarray, b_n: np.ndarray) -> float:
    """D(q, b_n) = sum q (delta - log1p delta) with delta = b_n / q - 1, which is
    sum q log(q / b_n) where b_n sums to 1: every term is nonnegative, and
    near a solution the terms keep their digits."""
    delta = b_n / q - 1.0
    return float(q @ (delta - np.log1p(delta)))


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


# a zero or non-finite M x_tilde shows as a non-finite divergence, not as warnings
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _run_accelerated(A, b, shifted, x_start, cfg, eps, tie):
    """Anderson-accelerated iteration from a fixed shift (general_solve's loop).

    Takes _run_iteration's arguments and returns the same report, with the
    same tracked residual, _ResidualGate and recompute.  Each iterate x_n
    (on the simplex from iterate 1 on) forms g = a_tilde^T (q / M x_n), the
    plain step G(x_n) = x_n * g and its residual f_n = G(x_n) - x_n.
    Anderson mixing (Walker & Ni 2011, SIAM J. Numer. Anal. 49:1715; for EM,
    Henderson & Varadhan 2019, J. Comput. Graph. Stat. 28:834) over the
    last _AA_WINDOW differences dG of plain steps and dF of residuals
    (dG = dx + dF, dx the differences of iterates) proposes

        x = G(x_n) - dG^T gamma,   gamma = argmin ||f_n - dF^T gamma||,

    scaled back onto the simplex.  The safeguard (Grippo, Lampariello &
    Lucidi 1986, SIAM J. Numer. Anal. 23:707) takes it as x_(n+1) when it
    is positive and its divergence is at most the largest of the last
    _GLL_MEMORY accepted ones; otherwise x_(n+1) is the plain step, the
    history is cleared, and rejections counts one.  The plain step needs no
    test: G never raises the divergence.  The differences live in two
    preallocated ring buffers, and the Gram matrix dF dF^T gains one row
    and column an iteration, so mixing costs O(m w) and allocates no m x w
    array.

    Products: M x_0, then per iteration a_tilde^T (q / M x_n) and the M x of
    the next iterate, which for an accepted mixed point is the product its
    divergence test made.  A mixed point that test rejects costs one
    product more; one with an entry <= 0 is rejected before any product.
    matvec_count adds the gate's recomputations.

    The certificate is _run_iteration's, read at the iterate it tests from
    the g every iteration forms: gap = max g - 1 >= D(x_n) - D*, and the
    run stops as stagnated_min_kl once gap <= _CERTIFICATE_TOL * D(x_n).
    kl_trace holds D at every iterate, iterate 0 scaled onto the simplex.
    """
    t = shifted.t
    system, xt, original, gate = _start_loop(A, b, shifted, x_start, eps, tie)
    q, a_tilde, b_total = system.b_tilde, system.a_tilde, system.b_total
    kl_trace = array("d")
    # ring buffers: row i holds a finished pair (dG, dF) for i < min(stored,
    # window) other than row stored % window, which holds (-G, -f) of the
    # last iterate until the next one finishes it
    dg = np.empty((_AA_WINDOW, xt.size))
    df = np.empty((_AA_WINDOW, xt.size))
    gram = np.empty((_AA_WINDOW, _AA_WINDOW))  # dF dF^T over the finished rows
    stored = 0  # pairs finished since the history was last cleared
    b_n = spmv(a_tilde, xt)
    made = 1  # products with a_tilde
    kl = None  # the divergence of the iterate, where its test computed it
    rejections = n = 0
    while True:
        gate.values.append(b_total * _norm(original(b_n - q)))
        gate.carried = True
        if kl is None:
            kl = _divergence(q, b_n if n else b_n / b_n.sum())
            if not math.isfinite(kl):
                # as q > 0, any zero, negative or non-finite (M x_tilde)_i makes
                # the divergence non-finite; the typed checks name the defect
                _ratio(q, b_n)
                kl = metrics.kl_divergence(q, b_n)
        kl_trace.append(kl)
        status = gate.status(xt, n, cfg.max_iter)
        if status is not None:
            break
        plain = spmv_transpose(a_tilde, q / b_n)
        made += 1
        # iterate 0 is off the simplex, where g . x = 1 fails
        gap = max(float(plain.max()) - 1.0, 2.0**-52)
        if n and gap <= _CERTIFICATE_TOL * kl:
            status = gate.status(xt, n, cfg.max_iter, SolveStatus.STAGNATED_MIN_KL)
            break
        plain *= xt
        # G(c x) = G(x), so iterate 0 enters the history scaled onto the simplex
        f = plain - (xt if n else xt / xt.sum())
        xt = plain
        b_n = kl = None
        slot = stored % _AA_WINDOW
        if n:
            dg[slot] += plain
            df[slot] += f
            stored += 1
            w = min(stored, _AA_WINDOW)
            gram[slot, :w] = gram[:w, slot] = df[:w] @ df[slot]
            mixed = _mixing_weights(gram[:w, :w], df[:w] @ f) @ dg[:w]
            np.subtract(plain, mixed, out=mixed)
            if mixed.min() > 0.0:
                mixed /= mixed.sum()
                b_mixed = spmv(a_tilde, mixed)
                made += 1
                kl_mixed = _divergence(q, b_mixed)
                if kl_mixed <= max(kl_trace[-_GLL_MEMORY:]):
                    xt, b_n, kl = mixed, b_mixed, kl_mixed
            if b_n is None:
                rejections += 1
                stored = 0
            slot = stored % _AA_WINDOW
        np.negative(plain, out=dg[slot])
        np.negative(f, out=df[slot])
        n += 1
        if b_n is None:
            b_n = spmv(a_tilde, xt)
            made += 1

    diagnostic = _certificate_diagnostic(n, kl, gap) if status is SolveStatus.STAGNATED_MIN_KL else None
    return SolveReport(
        status=status,
        iterations=n,
        x=system.recover(xt) - t,
        residual_trace=np.frombuffer(gate.values),
        kl_trace=np.frombuffer(kl_trace),
        elapsed_ns=0,
        matvec_count=made + gate.recomputes,
        diagnostic=diagnostic,
        t_shift=t,
        rejections=rejections,
    )


def nna_solve(A: SparseMatrix, b, x0=None, cfg: SolverConfig | None = None) -> SolveReport:
    """Solve A x = b for nonnegative A by shift, rescale and multiplicative iteration.

    b may have any sign (the shift is applied internally); the returned x is
    un-shifted.  Terminates when ||A x_n - b||_2 <= eps_tol (converged), at
    max_iter, or as stagnated_min_kl once the EM duality gap certifies that
    the system has no solution and x_n is within 1e-4 D of the minimal
    divergence D*; the diagnostic gives D and the gap.  The automatic shift
    is raised to -2 min(x0) (to 1 if min(x0) = 0) when it would leave an
    entry of x0 + t*1 at or below 0; an explicit t that does raises
    NegativeInput.  When the
    automatic shift is positive and the run stagnates, the shift is doubled
    and the solve retried a bounded number of times, keeping the best
    attempt; its matvec_count sums the products of every attempt.  Explicit
    t runs, and unshifted runs (b > 0 and x0 > 0), are never retried.  The
    shapes and values of A, b and x0 are checked first, and their defects
    raise.  Setup defects found after that (zero column, unshiftable row,
    zero row with positive b, an automatic shift that cannot stay finite)
    and values that overflow during the run come back as a BREAKDOWN report
    carrying a diagnostic instead of an exception.
    """
    return _solve(A, b, x0, cfg, None)


def _solve(A, b, x0, cfg, tie, loop=_run_iteration) -> SolveReport:
    """nna_solve on A through loop (_run_iteration or _run_accelerated), with
    residuals mapped through the tie block when it is not None."""
    started = time.perf_counter_ns()
    b_arr, x_start, cfg, eps = _setup(A, b, x0, cfg, np.ones, square=False)
    try:
        shifted = shift(A, b_arr, cfg.t_shift)
    except (NonFiniteValue, ZeroColumn, UnshiftableRow) as exc:
        return _breakdown(exc, A.ncols, started)
    auto = cfg.t_shift is None
    low = float(x_start.min(initial=math.inf))
    if low + shifted.t <= 0.0:
        if not auto:
            # general_solve starts each slack at -x0_j, so only a larger t helps there
            raise NegativeInput(f"x0 + t*1 must be positive: raise t above {-low:g}")
        # twice the start's deficit; a zero entry at t = 0 has none, and any
        # t > 0 clears it; retries double from there
        t_start = -2.0 * low if low < 0.0 else 1.0
        shifted = ShiftedSystem(t_start, b_arr + t_start * shifted.a_row_sums, shifted.a_row_sums)

    best = None
    matvecs = 0
    attempt = 0
    while True:
        try:
            report = loop(A, b_arr, shifted, x_start, cfg, eps, tie)
        except (NonFiniteValue, ZeroColumn, ZeroDenominator, UnshiftableRow) as exc:
            return _breakdown(exc, A.ncols, started)
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
