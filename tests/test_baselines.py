import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nnasolve
from nnasolve import (
    DimensionMismatch,
    Dominance,
    IndefiniteBreakdown,
    NotSquare,
    NotSymmetric,
    SolveStatus,
    SolverConfig,
    ZeroDiagonal,
    arnoldi_process,
    cg_solve,
    dominance_class,
    from_arrays,
    from_triplets,
    gauss_seidel_solve,
    gen_dense_uniform,
    gen_sparse_random,
    gmres_restarted,
    is_symmetric,
    jacobi_solve,
    lanczos_process,
    minres_solve,
    default_tolerance,
    embed,
    general_solve,
    nna_solve,
    normal_equation_solve,
    spmv,
)
from nnasolve.baselines import _cg_core
from nnasolve.nna import _norm, _ResidualGate
from conftest import dominant_mixed, identity, sparse_of, spd_dominant


CFG = SolverConfig(eps_tol=1e-9, max_iter=10_000)


# ---------------------------------------------------------------------------
# Jacobi / Gauss-Seidel

def test_jacobi_identity_single_step():
    report = jacobi_solve(identity(3), [1.0, 2.0, 3.0], cfg=CFG)
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 1
    assert np.allclose(report.x, [1.0, 2.0, 3.0])


def test_jacobi_dominant_matches_oracle():
    dense = np.array([[4.0, 1.0, 1.0], [1.0, 5.0, 2.0], [0.0, 1.0, 3.0]])
    b = np.array([6.0, 8.0, 4.0])
    report = jacobi_solve(sparse_of(dense), b, cfg=SolverConfig(eps_tol=1e-9))
    assert report.status is SolveStatus.CONVERGED
    assert np.abs(report.x - np.linalg.solve(dense, b)).max() <= 1e-8


def test_jacobi_zero_diagonal():
    with pytest.raises(ZeroDiagonal):
        jacobi_solve(sparse_of([[0.0, 1.0], [1.0, 0.0]]), [1.0, 1.0], cfg=CFG)


def test_jacobi_divergence_is_not_converged():
    report = jacobi_solve(
        sparse_of([[1.0, 3.0], [3.0, 1.0]]), [1.0, 1.0], cfg=SolverConfig(eps_tol=1e-9, max_iter=300)
    )
    assert report.status in (SolveStatus.MAX_ITERATIONS, SolveStatus.BREAKDOWN)


def test_jacobi_converges_on_the_residual_of_its_iterate():
    # Jacobi traced b - (A - D) x - D x, which read 0.0 at iteration 20 and
    # ended converged while ||b - A x|| = 1.11e-16 > eps
    A = sparse_of([[0.67, 0.02], [0.95, 1.39]])
    b = np.array([0.6, -0.65])
    report = jacobi_solve(A, b, cfg=SolverConfig(eps_tol=1e-16, max_iter=200))
    assert report.status is SolveStatus.MAX_ITERATIONS
    assert report.residual_trace[-1] == _norm(b - spmv(A, report.x)) > 1e-16


def test_gauss_seidel_identity_and_dominant():
    report = gauss_seidel_solve(identity(2), [1.0, -1.0], cfg=CFG)
    assert report.status is SolveStatus.CONVERGED and report.iterations == 1

    dense = np.array([[4.0, 1.0, 1.0], [1.0, 5.0, 2.0], [0.0, 1.0, 3.0]])
    b = np.array([6.0, 8.0, 4.0])
    gs = gauss_seidel_solve(sparse_of(dense), b, cfg=SolverConfig(eps_tol=1e-9))
    ja = jacobi_solve(sparse_of(dense), b, cfg=SolverConfig(eps_tol=1e-9))
    assert gs.status is SolveStatus.CONVERGED
    assert np.abs(gs.x - np.linalg.solve(dense, b)).max() <= 1e-8
    assert gs.iterations < ja.iterations


def test_gauss_seidel_sweep_is_in_place_and_forward():
    # a Jacobi step would also converge on this matrix; one sweep tells them apart
    rng = np.random.default_rng(11)
    dense = dominant_mixed(rng, 6)
    b = rng.uniform(-1, 1, 6)
    x0 = rng.uniform(-1, 1, 6)
    report = gauss_seidel_solve(sparse_of(dense), b, x0=x0, cfg=SolverConfig(eps_tol=1e-300, max_iter=1))
    x = x0.copy()
    for j in range(6):
        x[j] = (b[j] - dense[j, :j] @ x[:j] - dense[j, j + 1 :] @ x[j + 1 :]) / dense[j, j]
    assert report.status is SolveStatus.MAX_ITERATIONS and report.iterations == 1
    assert np.abs(report.x - x).max() <= 1e-14


def test_gauss_seidel_spd_two_by_two():
    report = gauss_seidel_solve(sparse_of([[2.0, 1.0], [1.0, 2.0]]), [3.0, 3.0], cfg=CFG)
    assert report.status is SolveStatus.CONVERGED
    assert np.allclose(report.x, [1.0, 1.0], atol=1e-8)


# ---------------------------------------------------------------------------
# CG

def test_cg_identity_one_iteration():
    report = cg_solve(identity(4), [1.0, 2.0, 3.0, 4.0], cfg=CFG)
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 1


def test_cg_spd_matches_oracle_in_m_steps():
    rng = np.random.default_rng(0)
    B = rng.uniform(-1, 1, (5, 5))
    dense = B.T @ B + np.eye(5)
    b = rng.uniform(-1, 1, 5)
    report = cg_solve(sparse_of(dense), b, cfg=SolverConfig(eps_tol=1e-8))
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations <= 5 + 2  # exact-arithmetic bound plus float slack
    assert np.abs(report.x - np.linalg.solve(dense, b)).max() <= 1e-8


def test_cg_indefinite_breakdown():
    with pytest.raises(IndefiniteBreakdown):
        cg_solve(sparse_of([[1.0, 0.0], [0.0, -1.0]]), [1.0, 1.0], cfg=CFG)


def test_cg_p_a_p_that_underflows_is_not_indefinite():
    # A = 1e-10 I is SPD, but p^T A p = 2e-326 underflows to 0 at the first
    # step; that is the range breakdown, not IndefiniteBreakdown
    A = from_triplets(2, 2, [(0, 0, 1e-10), (1, 1, 1e-10)])
    report = cg_solve(A, [1e-158, 1e-158], cfg=SolverConfig(eps_tol=1e-300))
    assert report.status is SolveStatus.BREAKDOWN and report.iterations == 0
    assert report.diagnostic.startswith("r^T r = 2.000e-316, ||r|| = 1.414e-158, p^T A p = 0.000e+00 at iteration 0")
    assert report.diagnostic.endswith("the recurrence left the floating-point range")
    assert report.matvec_count == 1  # the product by p; none at the zero start


def test_cg_p_a_p_of_exactly_zero_at_unit_scale_is_indefinite():
    # p = (1, 0) and A p = (0, 1): p^T A p is 0 with no underflow
    with pytest.raises(IndefiniteBreakdown, match="p\\^T A p = 0.000e\\+00 <= 0 at iteration 0"):
        cg_solve(sparse_of([[0.0, 1.0], [1.0, 0.0]]), [1.0, 0.0], cfg=CFG)


def test_cg_requires_symmetry():
    with pytest.raises(NotSymmetric):
        cg_solve(sparse_of([[1.0, 2.0], [0.0, 1.0]]), [1.0, 1.0], cfg=CFG)


def _symmetric(rng, m, signs, decades):
    """Q diag(lambda) Q^T with |lambda| spread over the given decades, of either sign if signs."""
    Q = np.linalg.qr(rng.standard_normal((m, m)))[0]
    lam = np.logspace(0, decades, m) * (rng.choice([-1.0, 1.0], m) if signs else 1.0)
    dense = Q @ np.diag(lam) @ Q.T
    return (dense + dense.T) / 2.0


def _condition_1e8(seed):
    """SPD Q diag(logspace(0, 8, 40)) Q^T and a standard normal b."""
    rng = np.random.default_rng(seed)
    return sparse_of(_symmetric(rng, 40, False, 8)), rng.standard_normal(40)


def test_cg_converges_only_on_a_recomputed_residual():
    # at condition 1e8 the CG recurrence residual drifts below 1e-10 ||b||
    # while b - A x stays above it (seed 0: 0.54 eps against 17.8 eps), and
    # every one of these runs used to report converged on the drifted value
    for seed in range(20):
        A, b = _condition_1e8(seed)
        eps = 1e-10 * float(np.linalg.norm(b))
        report = cg_solve(A, b, cfg=SolverConfig(eps_tol=eps, max_iter=2_000))
        true = np.linalg.norm(b - spmv(A, report.x))
        assert report.residual_trace[-1] == true
        assert report.status is not SolveStatus.CONVERGED or true <= eps


def test_cg_keeps_confirming_after_a_carried_zero(monkeypatch):
    # eigenvalues 1 and 7.6e7, eps below what CG attains: at iterate 11 the
    # recurrence residual is exactly 0 and its confirmation fails; the gate
    # must stay above 0, or no later carried value is confirmed until r^T r
    # underflows and the run ends as breakdown (after 43 iterations here)
    confirmed = []
    confirm = _ResidualGate.confirm

    def recording(gate, x):
        carried = gate.values[-1] if gate.carried else None
        confirm(gate, x)
        confirmed.append((carried, gate.values[-1]))

    monkeypatch.setattr(_ResidualGate, "confirm", recording)
    A = sparse_of([[69817413.53626642, -20175903.062596496], [-20175903.062596496, 5830452.883043374]])
    b = np.array([0.5693197254611927, 0.011143070642764812])
    eps = 5.694287644846873e-11
    report = cg_solve(A, b, cfg=SolverConfig(eps_tol=eps, max_iter=200))
    assert any(carried == 0.0 and exact > eps for carried, exact in confirmed)
    assert report.status is SolveStatus.CONVERGED
    assert (report.iterations, report.matvec_count) == (31, 37)
    assert report.residual_trace[-1] == np.linalg.norm(b - spmv(A, report.x)) <= eps


def test_cg_restarts_from_a_replaced_residual():
    # at 1e-9 ||b|| the first confirmation fails on all eight systems;
    # restarting from the recomputed residual converges on seven of them,
    # keeping the old direction across it on none
    converged = []
    for seed in range(8):
        A, b = _condition_1e8(seed)
        eps = 1e-9 * float(np.linalg.norm(b))
        report = cg_solve(A, b, cfg=SolverConfig(eps_tol=eps, max_iter=5_000))
        if report.status is SolveStatus.CONVERGED:
            assert np.linalg.norm(b - spmv(A, report.x)) == report.residual_trace[-1] <= eps
            converged.append(seed)
    assert converged == [0, 1, 2, 3, 4, 5, 7]


def test_cg_directions_are_conjugate():
    # conjugacy is a finite-precision casualty on long runs; well-conditioned
    # instances that converge in well under m steps keep it observable at 1e-8
    rng = np.random.default_rng(1)
    for _ in range(5):
        m = int(rng.integers(10, 31))
        dense = spd_dominant(rng, m)
        applied = []

        def apply_op(v):
            applied.append(v.copy())
            return dense @ v

        rhs = rng.uniform(-1, 1, m)
        _cg_core(apply_op, rhs, np.zeros(m), _ResidualGate(1e-10, first=rhs), 100_000)
        P = np.column_stack(applied)  # from a zero x0 every product is by a direction
        gram = P.T @ dense @ P
        scale = np.sqrt(np.diag(gram))
        cosines = gram / np.outer(scale, scale)
        assert np.abs(cosines - np.diag(np.diag(cosines))).max() <= 1e-8


# ---------------------------------------------------------------------------
# GMRES / MINRES

def test_gmres_identity_happy_breakdown():
    report = gmres_restarted(identity(3), [1.0, 2.0, 3.0], k=5, cfg=CFG)
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 1
    assert np.allclose(report.x, [1.0, 2.0, 3.0], atol=1e-9)


def test_gmres_positive_definite_nonsymmetric_small_k():
    rng = np.random.default_rng(2)
    sym = spd_dominant(rng, 10)
    skew = rng.uniform(-0.2, 0.2, (10, 10))
    dense = sym + (skew - skew.T)
    b = rng.uniform(-1, 1, 10)
    report = gmres_restarted(sparse_of(dense), b, k=2, cfg=SolverConfig(eps_tol=1e-9, max_iter=10_000))
    assert report.status is SolveStatus.CONVERGED
    assert np.abs(report.x - np.linalg.solve(dense, b)).max() <= 1e-7


def test_gmres_can_stagnate():
    # GMRES(1) on a rotation: H = [[0], [1]], so the step is zero on a Krylov
    # space that is not invariant, and every restart would repeat the first
    report = gmres_restarted(
        sparse_of([[0.0, 1.0], [-1.0, 0.0]]), [1.0, 1.0], k=1, cfg=SolverConfig(eps_tol=1e-10, max_iter=25)
    )
    assert report.status is SolveStatus.BREAKDOWN
    assert report.diagnostic.startswith("restart 1:")
    assert report.iterations == 1 and report.matvec_count == 1
    assert report.residual_trace[-1] == report.residual_trace[0]


def test_singular_hessenberg_stops_at_the_restart_that_cannot_move():
    # A e1 = 0, so the first Arnoldi step ends on a zero column of H and the
    # Krylov space is invariant with y = 0: every restart would repeat the first one
    nilpotent = from_triplets(2, 2, [(0, 1, 1.0)])
    report = gmres_restarted(nilpotent, [1.0, 0.0], k=2, cfg=SolverConfig(max_iter=10_000))
    assert report.status is SolveStatus.BREAKDOWN
    assert report.diagnostic.startswith("restart 1:")
    assert report.iterations == 1 and report.matvec_count == 1
    assert np.all(np.isfinite(report.x))
    assert report.residual_trace.tolist() == [1.0, 1.0]

    # b is not in the range of diag(1, 0): the iterate settles on the least-squares
    # solution, and the restart after that cannot move it
    singular = from_triplets(2, 2, [(0, 0, 1.0)])
    report = minres_solve(singular, [1.0, 1.0], k=2, cfg=SolverConfig(max_iter=20))
    assert report.status is SolveStatus.BREAKDOWN
    assert report.diagnostic.startswith("restart 2:")
    assert np.allclose(report.x, [1.0, 0.0], atol=1e-12)
    assert report.residual_trace.size == 3
    assert report.residual_trace[-1] == pytest.approx(1.0)


def _huge(a):
    return from_triplets(2, 2, [(0, 0, a), (0, 1, a), (1, 0, a), (1, 1, -a)])


_DIAG = from_triplets(2, 2, [(0, 0, 1.0), (1, 1, 2.0)])
# A v0 = (sqrt(2) a, 0) for v0 = b / ||b||: it overflows at a = 1.7e308
_OVERFLOWING = _huge(1.7e308)
_OVERFLOWED = "restart 1: H is not finite after 2 steps: a product overflowed"


@pytest.mark.parametrize(
    "solve, A, b, diagnostic",
    [
        (cg_solve, _DIAG, [1e300, 1e300], "r^T r = inf"),
        (normal_equation_solve, _DIAG, [1e300, 1e300], "r^T r = inf"),
        (lambda A, b, cfg: gmres_restarted(A, b, k=2, cfg=cfg), _OVERFLOWING, [1.0, 1.0], _OVERFLOWED),
        (lambda A, b, cfg: minres_solve(A, b, k=2, cfg=cfg), _OVERFLOWING, [1.0, 1.0], _OVERFLOWED),
    ],
    ids=["cg", "normal-cg", "gmres-overflowing-basis", "minres-overflowing-basis"],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_values_are_breakdown(solve, A, b, diagnostic):
    report = solve(A, b, cfg=SolverConfig(max_iter=20))
    assert report.status is SolveStatus.BREAKDOWN
    assert report.residual_trace.size == report.iterations + 1
    assert report.diagnostic.startswith(diagnostic)


@pytest.mark.parametrize(
    "solve, iterations, last", [(jacobi_solve, 646, "inf"), (gauss_seidel_solve, 324, "nan")], ids=["jacobi", "gauss-seidel"]
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverging_sweep_names_the_residual_it_ends_on(solve, iterations, last):
    # [[1, 3], [3, 1]] is not diagonally dominant: each sweep grows x until
    # ||b - A x|| leaves the floating-point range, where the gate ends the run
    # and names what it read (the report carried no diagnostic)
    report = solve(sparse_of([[1.0, 3.0], [3.0, 1.0]]), [1.0, 1.0])
    assert report.status is SolveStatus.BREAKDOWN
    assert report.iterations == report.matvec_count == iterations
    assert report.diagnostic == f"iterate {iterations}: ||b - A x|| = {last} is not finite"


@pytest.mark.parametrize("solve", [gmres_restarted, minres_solve], ids=["gmres", "minres"])
def test_huge_entries_with_representable_products_converge(solve):
    # A v0 = (sqrt(2) 1e308, 0) is representable, and so is the solution (1e-308, 0)
    report = solve(_huge(1e308), [1.0, 1.0], k=2, cfg=SolverConfig(max_iter=20))
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 1 and report.matvec_count == 3
    np.testing.assert_allclose(report.x, [1e-308, 0.0], rtol=1e-12, atol=1e-320)


@pytest.mark.parametrize(
    "solve, status, iterations",
    [
        (jacobi_solve, SolveStatus.CONVERGED, 1),
        (gauss_seidel_solve, SolveStatus.CONVERGED, 1),
        (lambda A, b, cfg: gmres_restarted(A, b, k=2, cfg=cfg), SolveStatus.CONVERGED, 1),
        (lambda A, b, cfg: minres_solve(A, b, k=2, cfg=cfg), SolveStatus.CONVERGED, 1),
        (nna_solve, SolveStatus.CONVERGED, 1),
        # r^T r = 2e600 overflows in the CG recurrence itself, which ends
        # before any product by p: none for CG, A^T b for CGLS
        (cg_solve, SolveStatus.BREAKDOWN, 0),
        (normal_equation_solve, SolveStatus.BREAKDOWN, 0),
    ],
    ids=["jacobi", "gauss-seidel", "gmres", "minres", "nna", "cg", "normal-cg"],
)
def test_residual_norms_do_not_overflow(solve, status, iterations):
    # b, x* = (1e300, 5e299) and every residual are representable, but the
    # plain sum of squares of b is not; no warning may be raised either
    b = np.array([1e300, 1e300])
    assert default_tolerance(b) == pytest.approx(1e-8 * math.sqrt(2.0) * 1e300)
    report = solve(_DIAG, b, cfg=SolverConfig(max_iter=20))
    assert report.status is status
    assert report.iterations == iterations
    assert report.residual_trace[0] == pytest.approx(math.sqrt(2.0) * 1e300)
    assert np.all(np.isfinite(report.residual_trace))
    if status is SolveStatus.CONVERGED:
        assert report.residual_trace[-1] <= default_tolerance(b)
        np.testing.assert_allclose(report.x, [1e300, 5e299], rtol=1e-8)
    else:
        assert report.diagnostic.startswith("r^T r = inf, ||r|| = ")
        assert "p^T A p = nan at iteration 0" in report.diagnostic
        assert report.matvec_count == (solve is normal_equation_solve)


def test_arnoldi_orthonormal_basis():
    rng = np.random.default_rng(3)
    dense = rng.uniform(-1, 1, (60, 60))
    r0 = rng.uniform(-1, 1, 60)
    V, H = arnoldi_process(sparse_of(dense), r0, 12)
    assert V.shape == (60, 13) and H.shape == (13, 12)
    gram = V.T @ V
    assert np.abs(gram - np.eye(gram.shape[0])).max() <= 1e-8
    # Hessenberg structure: zero below the first subdiagonal
    for i in range(H.shape[0]):
        for j in range(H.shape[1]):
            if i > j + 1:
                assert H[i, j] == 0.0


def test_gmres_inner_least_squares_residual_nonincreasing():
    # for both builders; a target between the residuals of steps j - 1 and j
    # stops the cycle after exactly j steps
    rng = np.random.default_rng(4)
    dense = rng.uniform(-1, 1, (30, 30))
    r0 = rng.uniform(-1, 1, 30)
    beta = np.linalg.norm(r0)
    for process, matrix in ((arnoldi_process, dense), (lanczos_process, (dense + dense.T) / 2)):
        A = sparse_of(matrix)
        _, H = process(A, r0, 10)
        resids = [beta]
        for j in range(1, H.shape[1] + 1):
            e1 = np.zeros(j + 1)
            e1[0] = beta
            H_j = H[: j + 1, :j]
            y = np.linalg.lstsq(H_j, e1, rcond=None)[0]
            resids.append(np.linalg.norm(H_j @ y - e1))
        assert all(resids[i + 1] <= resids[i] + 1e-12 for i in range(len(resids) - 1))
        for j in range(1, H.shape[1] + 1):
            _, H_stop = process(A, r0, 10, (resids[j - 1] + resids[j]) / 2)
            assert H_stop.shape == (j + 1, j)


def test_minres_identity_and_indefinite():
    report = minres_solve(identity(2), [1.0, 2.0], k=2, cfg=CFG)
    assert report.status is SolveStatus.CONVERGED

    report = minres_solve(sparse_of([[1.0, 0.0], [0.0, -1.0]]), [1.0, 1.0], k=2, cfg=CFG)
    assert report.status is SolveStatus.CONVERGED
    assert np.allclose(report.x, [1.0, -1.0], atol=1e-9)


def test_minres_requires_symmetry():
    with pytest.raises(NotSymmetric):
        minres_solve(sparse_of([[1.0, 2.0], [0.0, 1.0]]), [1.0, 1.0], k=2, cfg=CFG)


_SHAPE_FIRST = [
    cg_solve,
    lambda A, b, x0=None: gmres_restarted(A, b, x0=x0, k=2),
    lambda A, b, x0=None: minres_solve(A, b, x0=x0, k=2),
]


@pytest.mark.parametrize("solve", _SHAPE_FIRST, ids=["cg", "gmres", "minres"])
def test_shape_b_and_x0_are_checked_before_symmetry(solve):
    with pytest.raises(NotSquare):
        solve(sparse_of([[1.0, 2.0], [0.0, 1.0], [3.0, 0.0]]), [1.0, 1.0, 1.0])
    nonsymmetric = sparse_of([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch, match="b has length 3"):
        solve(nonsymmetric, [1.0, 1.0, 1.0])
    with pytest.raises(DimensionMismatch, match="x0 has length 3"):
        solve(nonsymmetric, [1.0, 1.0], x0=[0.0, 0.0, 0.0])


def test_minres_matches_gmres_per_restart_on_symmetric():
    rng = np.random.default_rng(5)
    dense = rng.uniform(-1, 1, (20, 20))
    dense = (dense + dense.T) / 2 + 0.5 * np.eye(20)
    A = sparse_of(dense)
    b = rng.uniform(-1, 1, 20)
    for restarts in (1, 2, 3):
        cfg = SolverConfig(eps_tol=1e-14, max_iter=restarts)
        xg = gmres_restarted(A, b, k=5, cfg=cfg).x
        xm = minres_solve(A, b, k=5, cfg=cfg).x
        assert np.abs(xg - xm).max() <= 1e-8


def test_lanczos_tridiagonal_matches_arnoldi_on_symmetric():
    rng = np.random.default_rng(6)
    dense = rng.uniform(-1, 1, (15, 15))
    dense = (dense + dense.T) / 2
    A = sparse_of(dense)
    r0 = rng.uniform(-1, 1, 15)
    Va, Ha = arnoldi_process(A, r0, 6)
    Vl, Hl = lanczos_process(A, r0, 6)
    assert Ha.shape == Hl.shape == (7, 6)
    np.testing.assert_allclose(Hl, Ha, rtol=0, atol=1e-8)
    np.testing.assert_allclose(Vl, Va, rtol=0, atol=1e-8)
    # Lanczos orthogonalizes against two vectors: nothing above the first
    # superdiagonal, which it computes, so H is symmetric only to rounding
    assert not np.triu(Hl, 2).any()
    T = Hl[:-1]
    assert np.abs(T - T.T).max() <= 1e-12 * np.linalg.norm(Hl)


@st.composite
def invariant_blocks(draw):
    """A block-diagonal symmetric A, r0 inside its first block of size d, and that d.

    The first block is Q diag(1..d) Q^T and r0 = Q 1, so r0 has equal weight on
    d distinct eigenvalues: its Krylov space has dimension exactly d.
    """
    d = draw(st.integers(1, 6))
    e = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    B = rng.uniform(-1.0, 1.0, (e, e))
    dense = np.zeros((d + e, d + e))
    dense[:d, :d] = Q @ np.diag(np.arange(1.0, d + 1.0)) @ Q.T
    dense[d:, d:] = B + B.T + 4.0 * np.eye(e)
    dense = (dense + dense.T) / 2.0
    r0 = np.zeros(d + e)
    r0[:d] = Q.sum(axis=1)
    s = draw(st.integers(-300, 300))
    u = draw(st.integers(-300, 300))
    return dense * 10.0**s, r0 * 10.0**u, d


@pytest.mark.parametrize("process", [arnoldi_process, lanczos_process], ids=["arnoldi", "lanczos"])
@settings(max_examples=100, deadline=None)
@given(case=invariant_blocks())
def test_invariance_stop_is_scale_free(process, case):
    # whatever the scale of A and r0, the builder stops exactly where the
    # Krylov space closes under A: after d steps, not before, not after
    dense, r0, d = case
    V, H = process(sparse_of(dense), r0, 8)
    assert H.shape == (d + 1, d) and V.shape == (r0.size, d)
    assert np.all(np.isfinite(H))


def test_gmres_calls_the_builder_by_its_module_name(monkeypatch):
    # the benchmark's traced run patches nnasolve.baselines.arnoldi_process;
    # a builder bound early (say as a default argument) would bypass it
    import nnasolve.baselines as baselines

    calls = []
    original = baselines.arnoldi_process

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(baselines, "arnoldi_process", counting)
    rng = np.random.default_rng(12)
    dense = rng.uniform(-1, 1, (30, 30)) + 6.0 * np.eye(30)
    report = gmres_restarted(sparse_of(dense), rng.uniform(-1, 1, 30), k=3, cfg=CFG)
    assert report.status is SolveStatus.CONVERGED and report.iterations > 1
    assert len(calls) == report.iterations


def _count_products(monkeypatch):
    """Record (columns of the matrix, vector) of every kernel call the solvers make."""
    calls = []
    for module in (nnasolve.nna, nnasolve.baselines):
        for name in ("spmv", "spmv_transpose"):
            kernel = getattr(module, name)

            def counted(A, v, kernel=kernel):
                calls.append((A.ncols, v))
                return kernel(A, v)

            monkeypatch.setattr(module, name, counted)
    return calls


def _record_cycles(monkeypatch):
    """Record (target, steps) of each GMRES cycle through nnasolve.baselines.arnoldi_process."""
    cycles = []
    original = nnasolve.baselines.arnoldi_process

    def recording(A, r0, k, target):
        V, H = original(A, r0, k, target)
        cycles.append((target, H.shape[1]))
        return V, H

    monkeypatch.setattr(nnasolve.baselines, "arnoldi_process", recording)
    return cycles


def _nonnegative(rng, m):
    """Nonnegative with about a third of its off-diagonal entries zero and a positive diagonal."""
    dense = rng.uniform(0.0, 1.0, (m, m)) * (rng.uniform(size=(m, m)) < 0.7)
    np.fill_diagonal(dense, rng.uniform(1.0, 2.0, m))
    return dense


# each solver on systems it accepts; the NNA solvers shift b, which may have any sign
_EVERY_SOLVER = {
    "nna": (lambda A, b, k, cfg: nna_solve(A, b, cfg=cfg), _nonnegative),
    "general": (lambda A, b, k, cfg: general_solve(A, b, cfg=cfg), lambda rng, m: dominant_mixed(rng, m)),
    "jacobi": (lambda A, b, k, cfg: jacobi_solve(A, b, cfg=cfg), lambda rng, m: dominant_mixed(rng, m)),
    "gauss-seidel": (lambda A, b, k, cfg: gauss_seidel_solve(A, b, cfg=cfg), lambda rng, m: dominant_mixed(rng, m)),
    # condition numbers up to 1e8: the CG recurrence residual drifts from b - A x
    "cg": (lambda A, b, k, cfg: cg_solve(A, b, cfg=cfg), lambda rng, m: _symmetric(rng, m, False, rng.uniform(0, 8))),
    "gmres": (lambda A, b, k, cfg: gmres_restarted(A, b, k=k, cfg=cfg), lambda rng, m: dominant_mixed(rng, m)),
    "minres": (lambda A, b, k, cfg: minres_solve(A, b, k=k, cfg=cfg), lambda rng, m: _symmetric(rng, m, True, 0.6)),
    "normal-cg": (
        lambda A, b, k, cfg: normal_equation_solve(A, b, cfg=cfg), lambda rng, m: dominant_mixed(rng, m)
    ),
}


@st.composite
def solver_runs(draw, solver):
    """A random system of size 2-30 the solver accepts, a restart length k in 1..6 and a run config."""
    m = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = _EVERY_SOLVER[solver][1](rng, m)
    b = rng.uniform(-1.0, 1.0, m)
    # down to 1e-16 ||b||, where steps fall below rounding and restarts stall
    eps = 10.0 ** draw(st.integers(-16, -2)) * float(np.linalg.norm(b))
    cfg = SolverConfig(eps_tol=eps, max_iter=draw(st.integers(0, 200)))
    return dense, b, draw(st.integers(1, 6)), cfg


@pytest.mark.parametrize("solver", sorted(_EVERY_SOLVER))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_solver_ends_on_the_recomputed_residual(solver, data):
    _ends_on_the_recomputed_residual(solver, *data.draw(solver_runs(solver)))


def _ends_on_the_recomputed_residual(solver, dense, b, k, cfg):
    """Residuals are carried by recurrences, restarts and the rescaled NNA
    system, but every exit reports the residual of the returned x, every
    convergence rests on it, and every product is counted."""
    A = sparse_of(dense)
    with pytest.MonkeyPatch.context() as patch:
        calls = _count_products(patch)
        report = _EVERY_SOLVER[solver][0](A, b, k, cfg)
    true = _norm(b - spmv(A, report.x))  # np.linalg.norm loses digits below 1e-154
    last = report.residual_trace[-1]
    assert report.residual_trace.size == report.iterations + 1
    if solver == "general":
        # general_solve maps the residual of the embedded iterate through the
        # tie block: the residual of the returned x up to rounding
        scale = np.abs(dense).sum() * (np.abs(report.x).max() + 1.0) + np.abs(b).sum()
        assert last == pytest.approx(true, rel=1e-9, abs=1e-12 * scale)
    else:
        assert last == true
    if report.status is SolveStatus.CONVERGED:
        assert last <= cfg.eps_tol
    elif report.status is SolveStatus.MAX_ITERATIONS:
        assert report.iterations == cfg.max_iter
    elif report.status is SolveStatus.BREAKDOWN:
        # a restart that cannot move x, or a CG residual that is 0 or whose
        # square underflows (and p^T A p with it)
        assert solver in ("gmres", "minres", "cg", "normal-cg")
        underflow = solver in ("cg", "normal-cg") and report.diagnostic.endswith(
            "the recurrence left the floating-point range"
        )
        assert "x unchanged" in report.diagnostic or underflow
    else:
        assert report.status is SolveStatus.STAGNATED_MIN_KL and solver in ("nna", "general")
    # uncounted: general_solve's tie block, the only matrix the solvers use
    # with fewer columns than the one they iterate
    iterated = A.ncols + (embed(A, b).J if solver == "general" else 0)
    products = sum(ncols == iterated for ncols, _ in calls)
    assert products == report.matvec_count
    return report


# b near 1e308 * U(-1, 1)^m overflows ||b|| or ||b||_1 in 4 of 5 uniform draws:
# a setup defect for the NNA solvers (no finite shift, or b sums to infinity),
# a non-finite first residual for the rest
_OVERFLOWING_B = dict(m=30, seed=0, exponent=308.0, k=2, max_iter=50)


def _overflowing_run(solver, m, seed, exponent, k, max_iter):
    rng = np.random.default_rng(seed)
    A = sparse_of(_EVERY_SOLVER[solver][1](rng, m))
    b = rng.uniform(-1.0, 1.0, m) * 10.0**exponent
    return _EVERY_SOLVER[solver][0](A, b, k, SolverConfig(max_iter=max_iter))


@pytest.mark.parametrize("solver", sorted(_EVERY_SOLVER))
@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(2, 30),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.floats(307.5, 308.0),
    k=st.integers(1, 6),
    max_iter=st.integers(0, 50),
)
@example(**_OVERFLOWING_B)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_every_breakdown_carries_a_diagnostic(solver, m, seed, exponent, k, max_iter):
    report = _overflowing_run(solver, m, seed, exponent, k, max_iter)
    if report.status is SolveStatus.BREAKDOWN:
        assert report.diagnostic


@pytest.mark.parametrize("solver", sorted(_EVERY_SOLVER))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_the_overflowing_example_breaks_down_every_solver(solver):
    # the pinned example of test_every_breakdown_carries_a_diagnostic: ||b||
    # and ||b||_1 overflow, so each solver ends as breakdown before its first step
    report = _overflowing_run(solver, **_OVERFLOWING_B)
    assert report.status is SolveStatus.BREAKDOWN and report.iterations == 0
    if solver in ("nna", "general"):
        assert report.diagnostic.startswith("NonFiniteValue: the automatic shift cannot grow")
    else:
        assert report.diagnostic == "iterate 0: ||b - A x|| = inf is not finite"


def test_cgls_below_its_attainable_accuracy_ends_on_the_recomputed_residual():
    # eps = 1e-16 ||b|| lies below what CGLS attains on this cond-2.29 system:
    # the carried b - A x stays at 5.58e-17 from iteration 4 on, above eps and
    # so never confirmed, while CG shrinks A^T s until, at iteration 22, r^T r
    # underflows to 0
    dense = np.array([[1.8441603476206951, -0.7461233955998485], [0.02797007162340548, 0.9592406227179716]])
    b = np.array([-0.3834114624841365, -0.28939854395352205])
    cfg = SolverConfig(eps_tol=4.803705515606083e-17, max_iter=23)
    report = _ends_on_the_recomputed_residual("normal-cg", dense, b, 1, cfg)
    assert report.status is SolveStatus.BREAKDOWN
    assert report.diagnostic.startswith("r^T r = 0.000e+00, ||r|| = 1.506e-162, p^T A p = nan at iteration 22")
    assert (report.iterations, report.matvec_count) == (22, 46)
    assert report.residual_trace[-1] == pytest.approx(1.2413e-16, rel=1e-4)


def test_cg_whose_p_a_p_underflows_ends_on_the_recomputed_residual():
    # r^T r = 1.976e-322 is subnormal but not 0, and p^T A p underflows to 0
    # at the first step: the typed underflow exit, whose diagnostic neither
    # starts "r^T r = 0.000e+00" nor says "x unchanged"
    cfg = SolverConfig(eps_tol=1e-300, max_iter=50)
    report = _ends_on_the_recomputed_residual("cg", np.diag([1e-3, 1e-3]), np.array([1e-161, 1e-161]), 1, cfg)
    assert report.status is SolveStatus.BREAKDOWN
    assert report.diagnostic.startswith("r^T r = 1.976e-322, ||r|| = 1.414e-161, p^T A p = 0.000e+00 at iteration 0")
    assert (report.iterations, report.matvec_count) == (0, 1)


def test_cgls_stops_where_a_transpose_s_is_zero():
    # s = b is orthogonal to the one column of A, so A^T s = 0 exactly (the sums
    # are exact) while ||s|| = sqrt(2): no step can move x
    report = _ends_on_the_recomputed_residual(
        "normal-cg", np.array([[1.0], [1.0]]), np.array([1.0, -1.0]), 1, SolverConfig(eps_tol=1e-9)
    )
    assert report.status is SolveStatus.BREAKDOWN
    assert report.diagnostic.startswith("iteration 0: r = 0, ")
    assert (report.iterations, report.matvec_count) == (0, 1)
    assert report.residual_trace.tolist() == [math.sqrt(2.0)]


def test_a_cycle_stops_at_the_step_that_reaches_the_target(monkeypatch):
    # the loop that ran every cycle to k steps and recomputed b - A x after each
    # made 7 (6 + 1) = 49 products here; now the last cycle stops after one
    # step and the only residual product is the confirmation: 6 * 6 + 1 + 1
    cycles = _record_cycles(monkeypatch)
    rng = np.random.default_rng(15)
    dense = rng.uniform(-1, 1, (30, 30)) + 5.0 * np.eye(30)
    b = rng.uniform(-1, 1, 30)
    A = sparse_of(dense)
    report = gmres_restarted(A, b, k=6, cfg=SolverConfig(eps_tol=1e-9, max_iter=100))
    assert report.status is SolveStatus.CONVERGED and report.iterations == 7
    assert [steps for _, steps in cycles] == [6] * 6 + [1]
    assert report.matvec_count == 38 and report.iterations * (6 + 1) == 49
    assert report.residual_trace[-1] == np.linalg.norm(b - spmv(A, report.x)) <= 1e-9


def test_a_failed_confirmation_lowers_the_target(monkeypatch):
    # at 1e-16 ||b|| the carried residual falls below the target before b - A x
    # does; the recomputed value stays in the trace, and the cycles after it
    # aim below eps by the observed ratio
    rng = np.random.default_rng(0)
    dense = dominant_mixed(rng, 6)
    b = rng.uniform(-1, 1, 6)
    eps = 1e-16 * float(np.linalg.norm(b))
    A = sparse_of(dense)
    calls = _count_products(monkeypatch)
    cycles = _record_cycles(monkeypatch)
    report = gmres_restarted(A, b, k=2, cfg=SolverConfig(eps_tol=eps, max_iter=100))
    targets = [target for target, _ in cycles]
    assert report.status is SolveStatus.CONVERGED
    assert report.residual_trace[-1] == np.linalg.norm(b - spmv(A, report.x)) <= eps
    first_lowered = next(i for i, t in enumerate(targets) if t < eps)
    assert targets[:first_lowered] == [eps] * first_lowered
    assert all(t == targets[first_lowered] for t in targets[first_lowered:])
    assert report.residual_trace[first_lowered] > eps  # the failed confirmation
    assert len(calls) == report.matvec_count


# GMRES(20) products to 1e-6 ||b|| on c07 seeds 0-9; running every cycle to
# 20 steps and recomputing b - A x at each restart took 2,835
_C07_GMRES_PRODUCTS = [223, 181, 161, 227, 450, 344, 129, 393, 334, 179]


def test_gmres_products_on_c06_and_c07_are_pinned():
    # the end-to-end product counts the benchmark reports, per solve
    for seed, products in enumerate(_C07_GMRES_PRODUCTS):
        inst = gen_sparse_random(1000, 5000, 100.0, seed)
        target = 1e-6 * float(np.linalg.norm(inst.b))
        report = gmres_restarted(inst.A, inst.b, k=20, cfg=SolverConfig(eps_tol=target, max_iter=2_000))
        assert report.status is SolveStatus.CONVERGED
        assert (seed, report.matvec_count) == (seed, products)
    assert sum(_C07_GMRES_PRODUCTS) == 2_621

    # c06: m = 10, so one cycle closes the Krylov space and one product confirms it
    inst = gen_dense_uniform(10, 0)
    report = gmres_restarted(inst.A, inst.b, k=20, cfg=SolverConfig(eps_tol=1e-8, max_iter=2_000))
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 1 and report.matvec_count == 11


def test_gmres_frees_each_restart_basis_before_the_next():
    # a restart holds its basis once, in the array it was built in, and
    # never next to the basis of the restart before; MINRES runs on the
    # symmetric part
    inst = gen_sparse_random(20_000, 20_000, 100.0, 0)
    rows, cols, vals = inst.A.triplets()
    S = from_arrays(inst.A.nrows, inst.A.ncols, np.r_[rows, cols], np.r_[cols, rows], np.r_[vals, vals] * 0.5)
    for solve, A in ((gmres_restarted, inst.A), (minres_solve, S)):
        solve(A, inst.b, k=2, cfg=SolverConfig(max_iter=1))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            report = solve(A, inst.b, k=20, cfg=SolverConfig(eps_tol=1e-300, max_iter=3))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.status is SolveStatus.MAX_ITERATIONS and report.iterations == 3
        assert peak <= 1.5 * 21 * A.nrows * 8, solve.__name__


# ---------------------------------------------------------------------------
# normal equations

def test_normal_cg_identity_and_oracle():
    report = normal_equation_solve(identity(3), [1.0, 2.0, 3.0], cfg=CFG)
    assert report.status is SolveStatus.CONVERGED
    assert np.allclose(report.x, [1.0, 2.0, 3.0], atol=1e-9)

    rng = np.random.default_rng(7)
    dense = rng.uniform(-1, 1, (8, 8)) + 2.0 * np.eye(8)
    b = rng.uniform(-1, 1, 8)
    report = normal_equation_solve(sparse_of(dense), b, cfg=SolverConfig(eps_tol=1e-8, max_iter=50_000))
    assert report.status is SolveStatus.CONVERGED
    assert np.abs(report.x - np.linalg.solve(dense, b)).max() <= 1e-6


def test_normal_cg_counts_every_product(monkeypatch):
    # the products of A^T b, of each CG step and of the one confirmation of the
    # carried residual; the first traced residual is ||b|| at the zero start
    calls = []
    for name in ("spmv", "spmv_transpose"):
        kernel = getattr(nnasolve.baselines, name)

        def counted(*args, kernel=kernel):
            calls.append(kernel.__name__)
            return kernel(*args)

        monkeypatch.setattr(nnasolve.baselines, name, counted)
    report = normal_equation_solve(sparse_of([[2.0, 1.0], [0.0, 1.0]]), [3.0, 1.0], cfg=CFG)
    assert report.status is SolveStatus.CONVERGED and report.iterations == 2
    assert len(calls) == report.matvec_count == 6


def test_normal_cg_stops_where_its_recurrence_residual_is_zero():
    # at iteration 21, A^T s is not 0 (||.|| = 1.6e-163) but its square
    # underflows to 0 while ||s|| = 1.1e-16 is above eps; the run ends there,
    # before a product by the next direction (it once raised
    # IndefiniteBreakdown on a positive definite A^T A)
    A = sparse_of([[1.77369681, -0.46042657], [-0.91805295, 2.33080853]])
    b = np.array([0.21327155, 0.45899312])
    report = normal_equation_solve(A, b, cfg=SolverConfig(eps_tol=5.06e-17, max_iter=100))
    assert report.status is SolveStatus.BREAKDOWN and report.iterations == 21
    assert report.diagnostic.startswith("r^T r = 0.000e+00, ||r|| = 1.568e-163, p^T A p = nan at iteration 21")
    # A^T b, two products a step and two confirmations (the one at iteration
    # 3 fails), none by the zero direction
    assert report.matvec_count == 1 + 2 * 21 + 2
    assert report.residual_trace[-1] == np.linalg.norm(b - spmv(A, report.x)) > 5.06e-17


@pytest.mark.parametrize(
    "scale, iterations, products",
    [(1e-165, 0, (0, 1)), (1e-150, 2, (3, 6))],
    ids=["1e-165", "1e-150"],
)
@pytest.mark.parametrize("solve", [cg_solve, normal_equation_solve], ids=["cg", "normal-cg"])
def test_cg_residual_whose_square_underflows_is_not_zero(solve, scale, iterations, products):
    # r is tiny but not 0: the run ends where r^T r underflows, with no product
    # by the next direction and no claim that r = 0
    b = np.array([scale, scale])
    report = solve(_DIAG, b, cfg=SolverConfig(eps_tol=1e-300, max_iter=50))
    assert report.status is SolveStatus.BREAKDOWN and report.iterations == iterations
    assert report.matvec_count == products[solve is normal_equation_solve]
    assert report.diagnostic.startswith("r^T r = 0.000e+00, ||r|| = ")
    assert f"at iteration {iterations}: " in report.diagnostic and "r = 0," not in report.diagnostic
    # np.linalg.norm would underflow here
    assert report.residual_trace[-1] == _norm(b - spmv(_DIAG, report.x)) > 0.0
    # every other solver converges on the same systems
    for other in (jacobi_solve, gauss_seidel_solve, gmres_restarted, minres_solve, nna_solve, general_solve):
        assert other(_DIAG, b, cfg=SolverConfig(eps_tol=1e-300, max_iter=50)).status is SolveStatus.CONVERGED


_START_PRODUCTS = {
    "gmres": (lambda A, b, x0, cfg: gmres_restarted(A, b, x0=x0, k=3, cfg=cfg), 1),
    "minres": (lambda A, b, x0, cfg: minres_solve(A, b, x0=x0, k=3, cfg=cfg), 1),
    "cg": (cg_solve, 1),
    # both start from r = b - A x0, one product at a nonzero x0
    "jacobi": (jacobi_solve, 1),
    "gauss-seidel": (gauss_seidel_solve, 1),
    # the residual s = b - A x0; A^T s then takes the place of A^T b
    "normal-cg": (normal_equation_solve, 1),
}


@pytest.mark.parametrize("start", ["none", "zero", "nonzero"])
@pytest.mark.parametrize("solver", sorted(_START_PRODUCTS))
def test_a_zero_start_makes_no_product(monkeypatch, solver, start):
    # with x0 = 0 the residual b - A x0 is b, so only a nonzero start pays for it
    solve, start_products = _START_PRODUCTS[solver]
    dense = spd_dominant(np.random.default_rng(13), 12)
    A, b = sparse_of(dense), np.random.default_rng(14).uniform(-1, 1, 12)
    x0 = {"none": None, "zero": np.zeros(12), "nonzero": np.full(12, 0.5)}[start]
    fixed = 1 if solver == "normal-cg" else 0  # A^T b, or A^T (b - A x0)
    calls = _count_products(monkeypatch)

    # max_iter = 0 stops at the start, before any step
    report = solve(A, b, x0, SolverConfig(max_iter=0))
    assert report.status is SolveStatus.MAX_ITERATIONS and report.iterations == 0
    expected = fixed + (start_products if start == "nonzero" else 0)
    assert len(calls) == report.matvec_count == expected
    if start != "nonzero":
        assert report.residual_trace.tolist() == [np.linalg.norm(b)]

    calls.clear()
    report = solve(A, b, x0, CFG)
    assert report.status is SolveStatus.CONVERGED and report.iterations >= 1
    assert len(calls) == report.matvec_count
    assert all(v.any() for _, v in calls)  # no product by a zero vector
    assert np.abs(report.x - np.linalg.solve(dense, b)).max() <= 1e-8


def test_normal_cg_slower_than_gmres_on_graded():
    rng = np.random.default_rng(8)
    m = 20
    dense = np.diag(np.logspace(0, 3, m)) + rng.uniform(-0.3, 0.3, (m, m))
    b = rng.uniform(-1, 1, m)
    eps = 1e-8 * (1 + float(np.linalg.norm(b)))
    cfg = SolverConfig(eps_tol=eps, max_iter=100_000)
    rn = normal_equation_solve(sparse_of(dense), b, cfg=cfg)
    rg = gmres_restarted(sparse_of(dense), b, k=m, cfg=SolverConfig(eps_tol=eps, max_iter=100))
    assert rn.status is SolveStatus.CONVERGED and rg.status is SolveStatus.CONVERGED
    assert rn.iterations > rg.matvec_count


# ---------------------------------------------------------------------------
# dominance classification

def test_dominance_examples():
    assert dominance_class(sparse_of([[4.0, 1.0], [1.0, 3.0]])).classification is Dominance.STRICTLY_DOMINANT
    weak = dominance_class(sparse_of([[1.0, 1.0], [1.0, 1.0]]))
    assert weak.classification is Dominance.WEAKLY_DOMINANT
    chain = dominance_class(sparse_of([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]))
    assert chain.classification is Dominance.IRREDUCIBLY_DOMINANT
    assert chain.symmetric
    assert dominance_class(sparse_of([[1.0, 5.0], [0.0, 1.0]])).classification is Dominance.NOT_DOMINANT


def test_dominance_requires_square():
    with pytest.raises(NotSquare):
        dominance_class(sparse_of(np.ones((2, 3))))


def test_strong_connectivity_against_scipy():
    scipy_sparse = pytest.importorskip("scipy.sparse")
    from scipy.sparse.csgraph import connected_components

    from nnasolve.baselines import _strongly_connected

    rng = np.random.default_rng(9)
    for _ in range(25):
        m = int(rng.integers(1, 12))
        dense = (rng.uniform(0, 1, (m, m)) < 0.25).astype(float)
        A = sparse_of(dense)
        n, _ = connected_components(scipy_sparse.csr_matrix(dense), directed=True, connection="strong")
        assert _strongly_connected(A) == (n == 1)

    # long chains, edge j -> i per stored a_ij
    m = 2_000
    nodes = np.arange(m)
    ones = np.ones(m)
    assert _strongly_connected(from_arrays(m, m, (nodes + 1) % m, nodes, ones))
    assert not _strongly_connected(from_arrays(m, m, nodes[1:], nodes[:-1], ones[1:]))
    # the cycle on 0..m-1 plus node m, whose only edge leads out of it
    rows = np.append((nodes + 1) % m, 0)
    assert not _strongly_connected(from_arrays(m + 1, m + 1, rows, np.append(nodes, m), np.ones(m + 1)))


@st.composite
def digraphs(draw):
    """Random digraphs, half of them built on a Hamiltonian cycle with at most one edge cut."""
    m = draw(st.integers(1, 40))
    edges = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=2 * m))
    if draw(st.booleans()):
        order = draw(st.permutations(range(m)))
        cut = draw(st.integers(-1, m - 1))
        edges += [(order[(i + 1) % m], order[i]) for i in range(m) if i != cut]
    return m, edges


@settings(max_examples=150, deadline=None)
@given(graph=digraphs())
def test_strong_connectivity_property_against_scipy(graph):
    scipy_sparse = pytest.importorskip("scipy.sparse")
    from scipy.sparse.csgraph import connected_components

    from nnasolve.baselines import _strongly_connected

    m, edges = graph
    rows = [i for i, _ in edges]
    cols = [j for _, j in edges]
    A = from_arrays(m, m, rows, cols, np.ones(len(edges)))
    pattern = scipy_sparse.csr_matrix((np.ones(A.nnz), (A.row_idx, A.entry_col)), shape=(m, m))
    n, _ = connected_components(pattern, directed=True, connection="strong")
    assert _strongly_connected(A) == (n == 1)


def test_is_symmetric():
    assert is_symmetric(sparse_of([[2.0, 1.0], [1.0, 2.0]]))
    assert not is_symmetric(sparse_of([[2.0, 1.0], [1.0 + 1e-6, 2.0]]))
    assert not is_symmetric(sparse_of([[2.0, 1.0], [0.0, 2.0]]))  # pattern asymmetry
    assert not is_symmetric(sparse_of(np.ones((2, 3))))


def test_one_by_one_systems():
    A = sparse_of([[5.0]])
    b = np.array([10.0])
    for solver in (
        lambda: jacobi_solve(A, b, cfg=CFG),
        lambda: gauss_seidel_solve(A, b, cfg=CFG),
        lambda: cg_solve(A, b, cfg=CFG),
        lambda: gmres_restarted(A, b, k=1, cfg=CFG),
        lambda: minres_solve(A, b, k=1, cfg=CFG),
        lambda: normal_equation_solve(A, b, cfg=CFG),
    ):
        report = solver()
        assert report.status is SolveStatus.CONVERGED
        assert report.x[0] == pytest.approx(2.0, abs=1e-9)


def test_report_invariants_across_solvers():
    rng = np.random.default_rng(10)
    dense = spd_dominant(rng, 9)
    b = rng.uniform(-1, 1, 9)
    A = sparse_of(dense)
    eps = 1e-8
    cfg = SolverConfig(eps_tol=eps, max_iter=5_000)
    reports = [
        jacobi_solve(A, b, cfg=cfg),
        gauss_seidel_solve(A, b, cfg=cfg),
        cg_solve(A, b, cfg=cfg),
        gmres_restarted(A, b, k=4, cfg=cfg),
        minres_solve(A, b, k=4, cfg=cfg),
        normal_equation_solve(A, b, cfg=cfg),
    ]
    for report in reports:
        assert report.residual_trace.size == report.iterations + 1
        assert report.status is SolveStatus.CONVERGED
        assert report.residual_trace[-1] <= eps
        assert report.elapsed_ns >= 0


def test_zero_diagonal_warning_case():
    skew = sparse_of([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ZeroDiagonal):
        jacobi_solve(skew, [1.0, 1.0], cfg=CFG)
    with pytest.raises(ZeroDiagonal):
        gauss_seidel_solve(skew, [1.0, 1.0], cfg=CFG)
