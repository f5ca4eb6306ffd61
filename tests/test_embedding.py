from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnasolve import (
    DimensionMismatch,
    NegativeInput,
    SolveStatus,
    SolverConfig,
    SplitMix64,
    consistency_defect,
    default_tolerance,
    embed,
    extract,
    from_arrays,
    from_triplets,
    gen_dense_uniform,
    gen_sparse_random,
    general_solve,
    gmres_restarted,
    nna_solve,
    shift,
    spmv,
)
from nnasolve.nna import _AA_WINDOW, _norm, _solve
from conftest import dominant_mixed, identity, minimal_kl_oracle, sparse_of


def test_embed_nonnegative_passthrough():
    A = sparse_of([[1.0, 2.0], [0.0, 3.0]])
    b = np.array([1.0, 2.0])
    emb = embed(A, b)
    assert emb.J == 0
    assert emb.P is A
    assert np.array_equal(emb.c, b)


@st.composite
def signed_triplets(draw, max_m=8):
    """(m1, m2, rows, cols, vals) with m1, m2 <= 8 and values in {-2, ..., 2};
    repeated positions are summed by from_arrays, so some cancel to zero."""
    m1, m2 = draw(st.integers(1, max_m)), draw(st.integers(1, max_m))
    entry = st.tuples(st.integers(0, m1 - 1), st.integers(0, m2 - 1), st.integers(-2, 2))
    entries = draw(st.lists(entry, max_size=2 * m1 * m2))
    rows, cols, vals = (list(c) for c in zip(*entries)) if entries else ([], [], [])
    return m1, m2, rows, cols, [float(v) for v in vals]


@settings(max_examples=150, deadline=None)
@given(triplets=signed_triplets())
def test_embed_property_nnz(triplets):
    m1, m2, rows, cols, vals = triplets
    A = from_arrays(m1, m2, rows, cols, vals)
    emb = embed(A, np.ones(m1))
    dense = A.to_dense()
    assert emb.J == int(np.any(dense < 0.0, axis=0).sum())
    assert emb.P.nnz == A.nnz + 2 * emb.J
    assert emb.P.shape == (m1 + emb.J, m2 + emb.J)
    assert not np.any(emb.P.values < 0.0)
    # the four runs of P, concatenated unsorted, as the module docstring lays them out
    rows, cols, vals = A.triplets()
    neg = vals < 0.0
    slack = np.searchsorted(emb.neg_cols, cols[neg])
    tied = np.arange(emb.J)
    reference = from_arrays(
        m1 + emb.J,
        m2 + emb.J,
        np.concatenate([rows[~neg], rows[neg], m1 + tied, m1 + tied]),
        np.concatenate([cols[~neg], m2 + slack, emb.neg_cols, m2 + tied]),
        np.concatenate([vals[~neg], -vals[neg], np.ones(emb.J), np.ones(emb.J)]),
    )
    for name in ("col_ptr", "row_idx", "values"):
        assert getattr(emb.P, name).tobytes() == getattr(reference, name).tobytes()


def test_embed_three_by_three_tied_columns():
    # negatives in columns 1 and 2 (0-based): two extra equations tie them
    a = np.array([[1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [1.0, 1.0, 1.0]])
    b = np.array([1.0, 2.0, 3.0])
    emb = embed(sparse_of(a), b)
    assert emb.J == 2
    assert list(emb.neg_cols) == [1, 2]
    assert emb.P.shape == (5, 5)
    assert emb.P.nnz == 9 + 2 * 2
    expected = np.array(
        [
            [1.0, 0.0, 1.0, 1.0, 0.0],
            [1.0, 1.0, 0.0, 0.0, 1.0],
            [1.0, 1.0, 1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 1.0],
        ]
    )
    assert np.array_equal(emb.P.to_dense(), expected)
    assert np.array_equal(emb.tie.to_dense(), expected[:3, 3:])
    assert np.array_equal(emb.c, [1.0, 2.0, 3.0, 0.0, 0.0])


def test_embed_negated_identity():
    emb = embed(sparse_of(-np.eye(2)), np.array([1.0, 2.0]))
    assert emb.J == 2
    expected = np.array(
        [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]
    )
    assert np.array_equal(emb.P.to_dense(), expected)
    assert emb.P.nnz == 2 + 4


def test_embed_entry_count_randomized():
    rng = np.random.default_rng(0)
    for _ in range(60):
        m1, m2 = rng.integers(1, 15, size=2)
        dense = rng.uniform(-1, 1, (m1, m2)) * (rng.uniform(0, 1, (m1, m2)) < 0.4)
        A = sparse_of(dense)
        emb = embed(A, rng.uniform(-1, 1, m1))
        J = int(np.count_nonzero((dense < 0).any(axis=0)))
        assert emb.J == J
        assert emb.P.nnz == A.nnz + 2 * J
        assert emb.P.shape == (m1 + J, m2 + J)


def test_embedded_solution_solves_original():
    # y* = (x*, -x*_J) solves P y = c, and any such y restricts to A x = b
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = int(rng.integers(2, 8))
        dense = rng.uniform(-1, 1, (m, m))
        x_star = rng.uniform(-2, 2, m)
        b = dense @ x_star
        emb = embed(sparse_of(dense), b)
        y_star = np.concatenate([x_star, -x_star[emb.neg_cols]])
        assert np.allclose(spmv(emb.P, y_star), emb.c, atol=1e-12)
        assert np.allclose(extract(y_star, emb), x_star)
        assert consistency_defect(y_star, emb) == 0.0


def test_embed_block_structure():
    rng = np.random.default_rng(2)
    dense = rng.uniform(-1, 1, (6, 6))
    emb = embed(sparse_of(dense), np.zeros(6))
    P = emb.P.to_dense()
    J, m1, m2 = emb.J, emb.m1, emb.m2
    assert np.array_equal(P[m1:, m2:], np.eye(J))
    selector = P[m1:, :m2]
    assert np.all(selector.sum(axis=1) == 1.0)
    assert np.all((selector == 0.0) | (selector == 1.0))
    assert np.all(P >= 0.0)


def test_embed_idempotent_on_nonnegative():
    rng = np.random.default_rng(3)
    dense = rng.uniform(0, 1, (5, 5))
    A = sparse_of(dense)
    b = rng.uniform(0, 1, 5)
    e1 = embed(A, b)
    e2 = embed(e1.P, e1.c)
    assert e2.J == 0
    assert np.array_equal(e1.P.to_dense(), e2.P.to_dense())


def test_extract_validates_length():
    emb = embed(sparse_of(-np.eye(2)), np.array([1.0, 1.0]))
    with pytest.raises(DimensionMismatch):
        extract(np.ones(3), emb)
    with pytest.raises(DimensionMismatch, match=r"^y has length 3, expected 4$"):
        consistency_defect(np.ones(3), emb)  # two original columns and two slacks


def test_extract_identity_when_no_ties():
    emb = embed(identity(3), np.array([1.0, 2.0, 3.0]))
    y = np.array([4.0, 5.0, 6.0])
    assert np.array_equal(extract(y, emb), y)
    assert consistency_defect(y, emb) == 0.0


def test_general_solve_matches_plain_on_nonnegative():
    b = np.array([2.0, 5.0])
    cfg = SolverConfig(eps_tol=1e-10)
    r_general = general_solve(identity(2), b, cfg=cfg)
    r_plain = nna_solve(identity(2), b, cfg=cfg)
    assert r_general.status is SolveStatus.CONVERGED
    assert np.allclose(r_general.x, r_plain.x)
    assert r_general.iterations == r_plain.iterations


def test_general_solve_mixed_sign_matches_dense_oracle():
    rng = np.random.default_rng(4)
    for _ in range(5):
        dense = dominant_mixed(rng, 10)
        x_star = rng.uniform(0.5, 1.5, 10)
        b = dense @ x_star
        cfg = SolverConfig(eps_tol=1e-9 * (1 + np.linalg.norm(b)), max_iter=100_000)
        report = general_solve(sparse_of(dense), b, cfg=cfg)
        assert report.status is SolveStatus.CONVERGED
        assert np.abs(report.x - np.linalg.solve(dense, b)).max() <= 1e-6


def test_general_solve_generic_uniform_system():
    # fully generic mixed-sign draw; slower tail, so a single instance here
    rng = np.random.default_rng(11)
    while True:
        dense = rng.uniform(-1, 1, (10, 10))
        if np.linalg.cond(dense) <= 40:
            break
    x_star = rng.uniform(0.5, 1.5, 10)
    b = dense @ x_star
    cfg = SolverConfig(eps_tol=1e-9 * (1 + np.linalg.norm(b)), max_iter=400_000)
    report = general_solve(sparse_of(dense), b, cfg=cfg)
    assert report.status is SolveStatus.CONVERGED
    assert np.abs(report.x - x_star).max() <= 1e-6


def test_general_solve_residual_trace_is_original_system():
    rng = np.random.default_rng(5)
    dense = dominant_mixed(rng, 6)
    x_star = rng.uniform(0.5, 1.5, 6)
    b = dense @ x_star
    A = sparse_of(dense)
    cfg = SolverConfig(eps_tol=1e-9, max_iter=50_000)
    report = general_solve(A, b, cfg=cfg)
    assert report.status is SolveStatus.CONVERGED
    assert report.residual_trace[-1] <= 1e-9
    # P y_0, two products with P an iteration, and one more per mixed point
    # the safeguard rejects; no residual is confirmed
    assert report.matvec_count == 2 * report.iterations + 1 + report.rejections
    # entry k is the residual of the embedded iterate y_k a run capped at k
    # iterations returns, mapped through the tie block, and that is
    # ||A x_k - b|| for its first m2 entries up to the rounding of the map
    emb = embed(A, b)
    scale = np.finfo(float).eps * (np.abs(dense).sum() * (np.abs(x_star).max() + 1.0) + np.abs(b).sum())
    for k, tracked in enumerate(report.residual_trace):
        y_k = _solve(emb.P, emb.c, np.ones(emb.m2 + emb.J), replace(cfg, max_iter=k), emb.tie, _AA_WINDOW).x
        r = emb.c - spmv(emb.P, y_k)
        assert tracked == _norm(r[: emb.m1] - spmv(emb.tie, r[emb.m1 :])), k
        assert tracked == pytest.approx(_norm(dense @ y_k[: emb.m2] - b), rel=0.0, abs=scale), k


# products general_solve makes on c07's seeds 0-9 (m = 1000, t = 0, target
# 1e-6 ||b||); the plain update caps seeds 4, 5 and 7 at 20k iterations
_C07_PRODUCTS = {0: 67, 1: 137, 2: 161, 3: 123, 4: 318, 5: 231, 6: 149, 7: 193, 8: 173, 9: 101}


def test_general_solve_on_c07_takes_fewer_products_than_gmres():
    products, gmres = {}, 0
    for seed in range(10):
        inst = gen_sparse_random(1000, 5000, 100.0, seed)
        target = 1e-6 * float(np.linalg.norm(inst.b))
        report = general_solve(inst.A, inst.b, cfg=SolverConfig(eps_tol=target, t_shift=0.0, max_iter=20_000))
        assert report.status is SolveStatus.CONVERGED, seed
        assert np.linalg.norm(spmv(inst.A, report.x) - inst.b) <= target
        products[seed] = report.matvec_count
        gmres += gmres_restarted(inst.A, inst.b, k=20, cfg=SolverConfig(eps_tol=target, max_iter=2_000)).matvec_count
    total = sum(products.values())
    print(f"c07 products: general_solve {total} {products}, GMRES(20) {gmres}")
    assert products == _C07_PRODUCTS
    assert total == 1653 < gmres == 2621


def test_general_solve_window_holds_on_its_held_out_instances():
    # the Anderson window of 20, with the history kept across rejections, was
    # chosen on these instances, not on c06, c07's seeds 0-9 or the
    # benchmark's: c07 seeds 10-29 (m = 1000), dense m = 10 seeds 1-10 at
    # t = 10 to 1e-8, and the c07 recipe at m = 1e4, seeds 0-2.  A window of
    # 10 that cleared the history took 2,588 / 1,196 / 1,322 products, and
    # 30 with it kept 2,117 / 747 / 1,084 (all with one confirmation product
    # a solve, which the residual form of the update no longer makes: 2,140
    # / 686 / 1,066 with it); a change to the loop that moves these totals
    # re-opens the choice
    def products(inst, **cfg):
        report = general_solve(inst.A, inst.b, cfg=SolverConfig(max_iter=20_000, **cfg))
        assert report.status is SolveStatus.CONVERGED
        return report.matvec_count

    def c07(m, seed):
        inst = gen_sparse_random(m, 5 * m, 100.0, seed)
        return products(inst, eps_tol=1e-6 * float(np.linalg.norm(inst.b)), t_shift=0.0)

    assert sum(c07(1000, seed) for seed in range(10, 30)) == 2120
    assert sum(products(gen_dense_uniform(10, seed), eps_tol=1e-8, t_shift=10.0) for seed in range(1, 11)) == 676
    assert sum(c07(10_000, seed) for seed in range(3)) == 1063


def _mixed_recipe(m, seed):
    # the benchmark's mixed-sign instance: c07's generator at size m, with 20%
    # of the off-diagonal entries negated by SplitMix64 stream 1
    inst = gen_sparse_random(m, 5 * m, 100.0, seed)
    rows, cols, vals = inst.A.triplets()
    off = np.flatnonzero(rows != cols)
    flip = off[SplitMix64(1).uniform(off.size) < 0.2]
    vals[flip] = -vals[flip]
    A = from_arrays(m, m, rows, cols, vals)
    return A, spmv(A, inst.x_star)


def test_general_solve_at_the_defaults_on_the_mixed_recipe():
    # default eps and auto shift (t = 1.9e7).  Iterating the shifted x_tilde
    # cost log10(t / |x|) digits, and the run ended as max_iterations at
    # 2.7e-7 ||b|| after 10,438 products (5,000 iterations); the residual
    # form converges in 947
    A, b = _mixed_recipe(10_000, 0)
    report = general_solve(A, b, cfg=SolverConfig(max_iter=2_000))
    assert report.status is SolveStatus.CONVERGED
    assert _norm(b - spmv(A, report.x)) <= default_tolerance(b)


@pytest.mark.parametrize("t", [1e6, 1e7])
def test_general_solve_on_c06_at_a_large_shift(t):
    # the shifted x_tilde ended as max_iterations after 40,020 and 40,031
    # products; the residual form converges in 31 and 29
    inst = gen_dense_uniform(10, 0)
    report = general_solve(inst.A, inst.b, cfg=SolverConfig(eps_tol=1e-8, t_shift=t, max_iter=20_000))
    assert report.status is SolveStatus.CONVERGED
    assert _norm(inst.b - spmv(inst.A, report.x)) <= 1e-8


@pytest.mark.parametrize("scale", [1e0, 1e100, 1e200, 1e300])
def test_general_solve_counts_do_not_depend_on_the_scale_of_b(scale):
    # dF dF^T, with f measured in units of B, overflowed from scale 1e160 on
    # (LinAlgError in the mixing solve), and t (b_sum - sx) from 1e170; in a
    # power-of-two unit the mixing weights are those of every other scale
    dense = np.array([[1.0, 0.9], [0.9, 1.0]])
    b = dense @ np.array([3.0, -3.0]) * scale
    report = general_solve(sparse_of(dense), b)
    assert report.status is SolveStatus.CONVERGED
    # at scale 1 rounding differs, as it did before
    assert report.matvec_count == (1_661 if scale == 1e0 else 1_655)


def test_general_solve_reaches_c04_minimal_divergence():
    # c04's 20 inconsistent 3 x 2 systems; their minimizers sit on the edge of
    # the simplex, where most mixed points have an entry <= 0 and the
    # safeguard takes the plain step
    rng = np.random.default_rng(104)
    for _ in range(20):
        dense = rng.uniform(0.2, 1.0, (3, 2))
        b = rng.uniform(0.5, 1.5, 3)
        report = general_solve(sparse_of(dense), b, cfg=SolverConfig(eps_tol=1e-12, t_shift=0.0, max_iter=200_000))
        assert report.status is SolveStatus.STAGNATED_MIN_KL
        assert report.diagnostic.startswith(f"certificate at iterate {report.iterations}: D = ")
        assert abs(float(report.kl_trace[-1]) - minimal_kl_oracle(dense, b)) <= 1e-4


def test_general_solve_rectangular():
    rng = np.random.default_rng(6)
    dense = rng.uniform(-1, 1, (3, 2))
    emb = embed(sparse_of(dense), np.zeros(3))
    assert emb.P.shape == (3 + emb.J, 2 + emb.J)


def test_general_solve_breakdown_report_is_sized_by_original_columns():
    # column 1 is zero, so the embedded 4 x 3 system breaks down; the report
    # still holds one entry per column of A, not m1 + J or m2 + J
    A = from_triplets(3, 2, [(0, 0, 1.0), (1, 0, -2.0), (2, 0, 1.0)])
    report = general_solve(A, [1.0, -2.0, 1.0])
    assert report.status is SolveStatus.BREAKDOWN
    assert "ZeroColumn" in report.diagnostic
    assert report.x.shape == (2,)
    assert np.all(np.isnan(report.x))


def test_general_solve_explicit_start():
    rng = np.random.default_rng(7)
    dense = dominant_mixed(rng, 5)
    x_star = rng.uniform(0.5, 1.5, 5)
    b = dense @ x_star
    report = general_solve(
        sparse_of(dense), b, x0=np.full(5, 2.0), cfg=SolverConfig(eps_tol=1e-9, max_iter=50_000)
    )
    assert report.status is SolveStatus.CONVERGED
    assert np.abs(report.x - x_star).max() <= 1e-6


_TIED = sparse_of([[3.0, -1.0], [1.0, 2.0]])  # x* = (1, 2) for b = (1, 5)


@pytest.mark.parametrize("x0, t", [([10.0, 10.0], 20.0), ([100.0, 100.0], 200.0), ([-50.0, 3.0], 100.0)])
def test_auto_shift_clears_the_embedded_start(x0, t):
    # the slack of column 1 starts at -x0[1], below the auto shift's 5.12 in
    # the first two cases; the shift becomes twice the start's deficit
    report = general_solve(_TIED, [1.0, 5.0], x0=x0)
    assert report.status is SolveStatus.CONVERGED
    assert report.t_shift == t and report.attempts == 1
    assert np.abs(report.x - [1.0, 2.0]).max() <= 1e-6


def test_explicit_shift_below_the_embedded_start_raises():
    # a positive x0 does not help: its slacks start at -x0
    with pytest.raises(NegativeInput, match="raise t above 10"):
        general_solve(_TIED, [1.0, 5.0], x0=[10.0, 10.0], cfg=SolverConfig(t_shift=5.0))


def test_converged_run_has_small_tie_defect():
    # unit-coefficient version of the tied-column example; oracle by dense solve
    a = np.array([[1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [1.0, 1.0, 1.0]])
    x_star = np.linalg.solve(a, np.array([1.0, 2.0, 3.0]))
    b = np.array([1.0, 2.0, 3.0])
    emb = embed(sparse_of(a), b)
    eps = 1e-9
    report = nna_solve(emb.P, emb.c, cfg=SolverConfig(eps_tol=eps, max_iter=200_000))
    assert report.status is SolveStatus.CONVERGED
    assert consistency_defect(report.x, emb) <= 10 * eps
    assert np.abs(extract(report.x, emb) - x_star).max() <= 1e-6
