import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nnasolve
from nnasolve import (
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
    gen_sparse_random,
    gmres_restarted,
    is_symmetric,
    jacobi_solve,
    lanczos_process,
    minres_solve,
    default_tolerance,
    nna_solve,
    normal_equation_solve,
)
from nnasolve.baselines import _cg_core
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


def test_cg_requires_symmetry():
    with pytest.raises(NotSymmetric):
        cg_solve(sparse_of([[1.0, 2.0], [0.0, 1.0]]), [1.0, 1.0], cfg=CFG)


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

        _cg_core(apply_op, rng.uniform(-1, 1, m), np.zeros(m), 1e-10, 100_000, lambda x, r: float(np.linalg.norm(r)))
        P = np.column_stack(applied[1:])  # the first product is A x0, not a direction
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
    report = gmres_restarted(
        sparse_of([[0.0, 1.0], [-1.0, 0.0]]), [1.0, 1.0], k=1, cfg=SolverConfig(eps_tol=1e-10, max_iter=25)
    )
    assert report.status is SolveStatus.MAX_ITERATIONS
    assert report.residual_trace[-1] == pytest.approx(report.residual_trace[0])


def test_singular_hessenberg_stops_at_the_restart_that_cannot_move():
    # A e1 = 0, so the first Arnoldi step ends on a zero column of H and the
    # Krylov space is invariant with y = 0: every restart would repeat the first one
    nilpotent = from_triplets(2, 2, [(0, 1, 1.0)])
    report = gmres_restarted(nilpotent, [1.0, 0.0], k=2, cfg=SolverConfig(max_iter=10_000))
    assert report.status is SolveStatus.BREAKDOWN
    assert report.diagnostic.startswith("restart 1:")
    assert report.iterations == 1 and report.matvec_count == 2
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


@pytest.mark.parametrize(
    "solve, A, b",
    [
        (cg_solve, _DIAG, [1e300, 1e300]),
        (normal_equation_solve, _DIAG, [1e300, 1e300]),
        (lambda A, b, cfg: gmres_restarted(A, b, k=2, cfg=cfg), _OVERFLOWING, [1.0, 1.0]),
        (lambda A, b, cfg: minres_solve(A, b, k=2, cfg=cfg), _OVERFLOWING, [1.0, 1.0]),
    ],
    ids=["cg", "normal-cg", "gmres-overflowing-basis", "minres-overflowing-basis"],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_values_are_breakdown(solve, A, b):
    report = solve(A, b, cfg=SolverConfig(max_iter=20))
    assert report.status is SolveStatus.BREAKDOWN
    assert report.residual_trace.size == report.iterations + 1


@pytest.mark.parametrize("solve", [gmres_restarted, minres_solve], ids=["gmres", "minres"])
def test_huge_entries_with_representable_products_converge(solve):
    # A v0 = (sqrt(2) 1e308, 0) is representable, and so is the solution (1e-308, 0)
    report = solve(_huge(1e308), [1.0, 1.0], k=2, cfg=SolverConfig(max_iter=20))
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 1 and report.matvec_count == 4
    np.testing.assert_allclose(report.x, [1e-308, 0.0], rtol=1e-12, atol=1e-320)


@pytest.mark.parametrize(
    "solve, status, iterations",
    [
        (jacobi_solve, SolveStatus.CONVERGED, 1),
        (gauss_seidel_solve, SolveStatus.CONVERGED, 1),
        (lambda A, b, cfg: gmres_restarted(A, b, k=2, cfg=cfg), SolveStatus.CONVERGED, 1),
        (lambda A, b, cfg: minres_solve(A, b, k=2, cfg=cfg), SolveStatus.CONVERGED, 1),
        (nna_solve, SolveStatus.CONVERGED, 1),
        # r^T r = 2e600 overflows in the CG recurrence itself
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
        assert report.diagnostic.startswith("r^T r = inf, p^T A p = inf at iteration 0")


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
    rng = np.random.default_rng(4)
    dense = rng.uniform(-1, 1, (30, 30))
    r0 = rng.uniform(-1, 1, 30)
    _, H = arnoldi_process(sparse_of(dense), r0, 10)
    beta = np.linalg.norm(r0)
    resids = []
    for j in range(1, H.shape[1] + 1):
        e1 = np.zeros(j + 1)
        e1[0] = beta
        H_j = H[: j + 1, :j]
        y = np.linalg.lstsq(H_j, e1, rcond=None)[0]
        resids.append(np.linalg.norm(H_j @ y - e1))
    assert all(resids[i + 1] <= resids[i] + 1e-12 for i in range(len(resids) - 1))


def test_minres_identity_and_indefinite():
    report = minres_solve(identity(2), [1.0, 2.0], k=2, cfg=CFG)
    assert report.status is SolveStatus.CONVERGED

    report = minres_solve(sparse_of([[1.0, 0.0], [0.0, -1.0]]), [1.0, 1.0], k=2, cfg=CFG)
    assert report.status is SolveStatus.CONVERGED
    assert np.allclose(report.x, [1.0, -1.0], atol=1e-9)


def test_minres_requires_symmetry():
    with pytest.raises(NotSymmetric):
        minres_solve(sparse_of([[1.0, 2.0], [0.0, 1.0]]), [1.0, 1.0], k=2, cfg=CFG)


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


def test_gmres_frees_each_restart_basis_before_the_next():
    # a restart holds its basis twice, as the list of vectors and as the
    # matrix stacked from it, but never next to the basis of the restart before
    inst = gen_sparse_random(20_000, 20_000, 100.0, 0)
    gmres_restarted(inst.A, inst.b, k=2, cfg=SolverConfig(max_iter=1))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        report = gmres_restarted(inst.A, inst.b, k=20, cfg=SolverConfig(eps_tol=1e-300, max_iter=3))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.status is SolveStatus.MAX_ITERATIONS and report.iterations == 3
    assert peak <= 2.5 * 21 * inst.A.nrows * 8


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
    # the products of A^T b, of each CG step and of each traced residual
    calls = []
    for name in ("spmv", "spmv_transpose"):
        kernel = getattr(nnasolve.baselines, name)

        def counted(*args, kernel=kernel):
            calls.append(kernel.__name__)
            return kernel(*args)

        monkeypatch.setattr(nnasolve.baselines, name, counted)
    report = normal_equation_solve(sparse_of([[2.0, 1.0], [0.0, 1.0]]), [3.0, 1.0], cfg=CFG)
    assert report.status is SolveStatus.CONVERGED and report.iterations == 2
    assert len(calls) == report.matvec_count == 10


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
