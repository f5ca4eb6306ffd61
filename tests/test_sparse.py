import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnasolve import (
    DimensionMismatch,
    IndexOutOfRange,
    NonFiniteValue,
    SparseMatrix,
    from_arrays,
    from_triplets,
    gen_dense_uniform,
    gen_sparse_random,
    rescale,
    spmv,
    spmv_transpose,
)
from conftest import identity, sparse_of


def test_from_triplets_identity():
    A = from_triplets(2, 2, [(0, 0, 1.0), (1, 1, 1.0)])
    assert A.nnz == 2
    assert np.array_equal(A.to_dense(), np.eye(2))


def test_from_triplets_exact_cancellation():
    A = from_triplets(2, 2, [(0, 0, 2.0), (0, 0, -2.0)])
    assert A.nnz == 0
    assert np.array_equal(A.to_dense(), np.zeros((2, 2)))


def test_from_triplets_sums_duplicates():
    A = from_triplets(2, 2, [(0, 1, 1.5), (0, 1, 2.5), (1, 0, -1.0)])
    assert A.nnz == 2
    assert A.to_dense()[0, 1] == 4.0


def test_from_triplets_block_embedding_count():
    # the 5x5 block system built from a full 3x3 with two tied columns:
    # 9 original entries + 2 selector + 2 identity = 13 stored entries
    entries = []
    signs = [[1, -1, 1], [1, 1, -1], [1, 1, 1]]
    for i in range(3):
        for j in range(3):
            if signs[i][j] > 0:
                entries.append((i, j, 1.0))
            else:
                entries.append((i, 3 + (j - 1), 1.0))
    entries += [(3, 1, 1.0), (4, 2, 1.0), (3, 3, 1.0), (4, 4, 1.0)]
    P = from_triplets(5, 5, entries)
    assert P.nnz == 13


def test_from_triplets_index_and_value_errors():
    with pytest.raises(IndexOutOfRange):
        from_triplets(2, 2, [(2, 0, 1.0)])
    with pytest.raises(IndexOutOfRange):
        from_triplets(2, 2, [(0, -1, 1.0)])
    with pytest.raises(NonFiniteValue):
        from_triplets(2, 2, [(0, 0, float("nan"))])


@st.composite
def coordinates(draw, duplicates):
    """(nrows, ncols, rows, cols, vals) in column-major order, as int64 / float64
    arrays, with explicit zeros; with duplicates some positions repeat.  The
    values are small integers, so duplicates sum exactly in any order."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cell = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
    cells = draw(st.lists(cell, max_size=2 * nrows * ncols, unique=not duplicates))
    cells.sort(key=lambda rc: (rc[1], rc[0]))
    vals = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.0, 3.0]), min_size=len(cells), max_size=len(cells)))
    rows = np.array([r for r, _ in cells], dtype=np.int64)
    cols = np.array([c for _, c in cells], dtype=np.int64)
    return nrows, ncols, rows, cols, np.array(vals, dtype=np.float64)


@settings(max_examples=150, deadline=None)
@given(data=st.one_of(coordinates(duplicates=False), coordinates(duplicates=True)), seed=st.integers(0, 2**32 - 1))
def test_from_arrays_property_order_free(data, seed):
    # canonical input skips the sort; a shuffled copy goes through it, and
    # duplicates keep even sorted input on the sort path
    nrows, ncols, rows, cols, vals = data
    order = np.random.default_rng(seed).permutation(rows.size)
    A = from_arrays(nrows, ncols, rows, cols, vals)
    B = from_arrays(nrows, ncols, rows[order], cols[order], vals[order])
    for name in ("col_ptr", "row_idx", "values"):
        assert getattr(A, name).tobytes() == getattr(B, name).tobytes()
    dense = np.zeros((nrows, ncols))
    np.add.at(dense, (rows, cols), vals)
    assert np.array_equal(A.to_dense(), dense)
    assert A.nnz == np.count_nonzero(dense)
    for out in (A.col_ptr, A.row_idx, A.values):
        assert not any(np.shares_memory(out, given_array) for given_array in (rows, cols, vals))


def test_spmv_examples():
    assert np.allclose(spmv(identity(2), [3.0, -1.0]), [3.0, -1.0])
    A = sparse_of([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(spmv(A, [1.0, 1.0]), [3.0, 7.0])
    with pytest.raises(DimensionMismatch):
        spmv(A, [1.0, 1.0, 1.0])


def test_spmv_consistent_construction():
    rng = np.random.default_rng(0)
    dense = rng.uniform(0, 1, (7, 7))
    x_star = rng.uniform(0.5, 1.5, 7)
    b = dense @ x_star
    assert np.allclose(spmv(sparse_of(dense), x_star), b, rtol=1e-13)


def test_spmv_transpose_examples():
    assert np.allclose(spmv_transpose(identity(3), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])
    A = sparse_of([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(spmv_transpose(A, [1.0, 1.0]), [4.0, 6.0])
    with pytest.raises(DimensionMismatch):
        spmv_transpose(A, [1.0])


def test_spmv_transpose_column_stochastic_ones():
    rng = np.random.default_rng(1)
    dense = rng.uniform(0.1, 1.0, (6, 6))
    dense /= dense.sum(axis=0, keepdims=True)
    out = spmv_transpose(sparse_of(dense), np.ones(6))
    assert np.allclose(out, np.ones(6), rtol=1e-12)


def test_spmv_transpose_with_empty_columns():
    A = from_triplets(3, 4, [(0, 0, 2.0), (2, 3, 5.0)])  # columns 1, 2 empty
    out = spmv_transpose(A, [1.0, 1.0, 1.0])
    assert np.allclose(out, [2.0, 0.0, 0.0, 5.0])
    assert np.allclose(spmv(A, [1.0, 1.0, 1.0, 1.0]), [2.0, 0.0, 5.0])


def test_column_sums_examples():
    assert np.allclose(identity(4).col_sums, np.ones(4))
    assert np.allclose(sparse_of([[1.0, 2.0], [3.0, 4.0]]).col_sums, [4.0, 6.0])
    A = from_triplets(2, 2, [(0, 0, 1.0)])  # zero column 1
    assert np.allclose(A.col_sums, [1.0, 0.0])


def test_adjointness_randomized():
    rng = np.random.default_rng(2)
    for _ in range(30):
        m, n = rng.integers(1, 40, size=2)
        dense = rng.uniform(-1, 1, (m, n)) * (rng.uniform(0, 1, (m, n)) < 0.4)
        A = sparse_of(dense)
        x = rng.uniform(-1, 1, n)
        c = rng.uniform(-1, 1, m)
        lhs = spmv(A, x) @ c
        rhs = x @ spmv_transpose(A, c)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_matches_dense_reference():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m, n = rng.integers(1, 51, size=2)
        dense = rng.uniform(-2, 2, (m, n)) * (rng.uniform(0, 1, (m, n)) < 0.5)
        A = sparse_of(dense)
        x = rng.uniform(-1, 1, n)
        c = rng.uniform(-1, 1, m)
        np.testing.assert_allclose(spmv(A, x), dense @ x, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(spmv_transpose(A, c), dense.T @ c, rtol=1e-13, atol=1e-14)


def test_triplet_round_trip_up_to_summed_duplicates():
    entries = [(0, 1, 1.0), (2, 0, 3.0), (0, 1, 0.5), (1, 1, -2.0)]
    A = from_triplets(3, 2, entries)
    got = set(zip(*[arr.tolist() for arr in A.triplets()]))
    assert got == {(0, 1, 1.5), (2, 0, 3.0), (1, 1, -2.0)}


def test_transpose_and_diagonal():
    rng = np.random.default_rng(4)
    dense = rng.uniform(-1, 1, (5, 8)) * (rng.uniform(0, 1, (5, 8)) < 0.5)
    A = sparse_of(dense)
    assert np.array_equal(A.transpose().to_dense(), dense.T)
    square = sparse_of(dense[:, :5])
    assert np.allclose(square.diagonal(), np.diag(dense[:, :5]))


def test_col_sums_cached_matches_recompute():
    rng = np.random.default_rng(5)
    dense = rng.uniform(-1, 1, (20, 20)) * (rng.uniform(0, 1, (20, 20)) < 0.3)
    A = sparse_of(dense)
    np.testing.assert_allclose(A.col_sums, dense.sum(axis=0), rtol=1e-13, atol=1e-15)


def test_degenerate_shapes():
    empty = from_triplets(0, 0, [])
    assert empty.shape == (0, 0)
    assert spmv(empty, np.empty(0)).shape == (0,)

    tall = from_triplets(3, 0, [])
    assert np.array_equal(spmv(tall, np.empty(0)), np.zeros(3))
    assert spmv_transpose(tall, np.ones(3)).shape == (0,)

    wide = from_triplets(0, 2, [])
    assert np.array_equal(spmv_transpose(wide, np.empty(0)), np.zeros(2))
    assert np.array_equal(wide.col_sums, np.zeros(2))


def test_col_ptr_invariants():
    rng = np.random.default_rng(6)
    dense = rng.uniform(0, 1, (9, 9)) * (rng.uniform(0, 1, (9, 9)) < 0.3)
    A = sparse_of(dense)
    assert A.col_ptr[0] == 0
    assert A.col_ptr[-1] == A.nnz
    assert np.all(np.diff(A.col_ptr) >= 0)
    for j in range(A.ncols):
        rows = A.row_idx[A.col_ptr[j] : A.col_ptr[j + 1]]
        assert np.all(np.diff(rows) > 0)


def test_direct_construction_validates_invariants():
    with pytest.raises(DimensionMismatch):
        SparseMatrix(2, 2, [0, 2, 2], [1, 0], [1.0, 2.0])  # rows not increasing
    with pytest.raises(DimensionMismatch):
        SparseMatrix(2, 2, [0, 2, 2], [0, 0], [1.0, 2.0])  # duplicate row in column
    with pytest.raises(IndexOutOfRange):
        SparseMatrix(2, 2, [0, 1, 1], [5], [1.0])
    with pytest.raises(NonFiniteValue):
        SparseMatrix(2, 2, [0, 1, 1], [0], [float("inf")])


# ---------------------------------------------------------------------------
# one product formula for every matrix, however many entries it stores

def _assert_gather_formula(A, x, c):
    """Both kernels give the gather + bincount formula to the last bit.

    The kernels multiply the gathered vector by the values in place; IEEE
    multiplication commutes, so the sums are the formula's bit for bit, NaN
    and infinite inputs included.
    """
    expected = np.bincount(A.row_idx, A.values * x[A.entry_col], A.nrows)
    assert spmv(A, x).tobytes() == expected.tobytes()
    expected = np.bincount(A.entry_col, A.values * c[A.row_idx], A.ncols)
    assert spmv_transpose(A, c).tobytes() == expected.tobytes()


@pytest.mark.parametrize("case", [0, 4, "c06", "c06-rescaled"])
def test_sparse_kernels_match_the_gather_formula_bit_for_bit(case):
    if isinstance(case, int):
        A = gen_sparse_random(1000, 5000, 100.0, case).A
        rng = np.random.default_rng(case)
    else:
        inst = gen_dense_uniform(10, 0)  # fully stored
        A = rescale(inst.A, inst.b).a_tilde if case == "c06-rescaled" else inst.A
        assert A.nnz == A.nrows * A.ncols
        rng = np.random.default_rng(6)
    x = rng.uniform(-1.0, 1.0, A.ncols) * 10.0 ** rng.integers(-8, 8, A.ncols)
    c = rng.uniform(-1.0, 1.0, A.nrows) * 10.0 ** rng.integers(-8, 8, A.nrows)
    _assert_gather_formula(A, x, c)


_MAGNITUDE = st.floats(-5.0, 5.0).map(lambda e: 10.0**e)
_SIGNED = st.tuples(_MAGNITUDE, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])


@st.composite
def full_products(draw):
    """A fully stored matrix with entries of magnitude 1e-5..1e5 and, for
    each kernel, an input vector that may hold zeros, inf and nan."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    dense = np.array(draw(st.lists(_SIGNED, min_size=m * n, max_size=m * n))).reshape(m, n)
    entry = st.one_of(_SIGNED, st.just(0.0))
    if draw(st.booleans()):
        entry = st.one_of(entry, st.sampled_from([np.inf, -np.inf, np.nan]))
    x = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    c = np.array(draw(st.lists(entry, min_size=m, max_size=m)))
    return dense, x, c


@settings(max_examples=200, deadline=None)
@given(case=full_products())
def test_full_storage_kernels_match_the_gather_formula(case):
    dense, x, c = case
    A = sparse_of(dense)
    assert A.nnz == dense.size
    _assert_gather_formula(A, x, c)


def test_rescale_shares_the_index_arrays():
    A = sparse_of(np.arange(1.0, 7.0).reshape(2, 3))
    a_tilde = rescale(A, [1.0, 1.0]).a_tilde
    assert a_tilde.col_ptr is A.col_ptr and a_tilde.row_idx is A.row_idx
