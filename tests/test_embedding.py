import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnasolve import (
    DimensionMismatch,
    SolveStatus,
    SolverConfig,
    consistency_defect,
    embed,
    extract,
    from_arrays,
    general_solve,
    nna_solve,
    shift,
    spmv,
)
from conftest import dominant_mixed, identity, sparse_of


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
    report = general_solve(A, b, cfg=SolverConfig(eps_tol=1e-9, max_iter=50_000))
    assert report.status is SolveStatus.CONVERGED
    assert report.residual_trace[-1] == pytest.approx(np.linalg.norm(dense @ report.x - b), abs=1e-9)
    assert report.residual_trace[-1] <= 1e-9
    # one product with P per half-step plus the one recheck that confirmed convergence
    assert report.matvec_count == 2 * report.iterations + 2
    # entry k is ||A x_k - b|| for the x_k a run capped at k iterations returns,
    # up to the rounding of working at shift t: eps * t * sum|P|, about 2e-13 here
    emb = embed(A, b)
    floor = np.finfo(float).eps * shift(emb.P, emb.c).t * np.abs(emb.P.values).sum()
    for k, tracked in enumerate(report.residual_trace):
        x_k = general_solve(A, b, cfg=SolverConfig(eps_tol=1e-9, max_iter=k)).x
        assert tracked == pytest.approx(np.linalg.norm(dense @ x_k - b), rel=1e-6, abs=floor), k


def test_general_solve_rectangular():
    rng = np.random.default_rng(6)
    dense = rng.uniform(-1, 1, (3, 2))
    emb = embed(sparse_of(dense), np.zeros(3))
    assert emb.P.shape == (3 + emb.J, 2 + emb.J)


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
