"""Compressed sparse column matrices and the two matrix-vector kernels every solver uses.

Storage is CSC with strictly increasing row indices inside each column, no
explicitly stored zeros, and cached column sums.  Both kernels gather the
vector at the stored entries and sum the products with bincount, however
many entries a matrix stores.  Matrices are immutable after construction and
safe to share across threads; all operations here are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NonFiniteValue,
    TooLargeForDense,
)

__all__ = [
    "SparseMatrix",
    "as_vector",
    "from_arrays",
    "from_triplets",
    "is_symmetric",
    "spmv",
    "spmv_transpose",
]

_DENSE_LIMIT = 4_000_000  # elements; guards accidental densification
_SYMMETRY_RTOL = 1e-12  # is_symmetric: |a_ij - a_ji| <= this * max(|a_ij|, |a_ji|)


def as_vector(values, name: str = "vector", size: int | None = None) -> np.ndarray:
    """Coerce to a 1-D float64 array (no copy of one already), of length size
    if given, rejecting NaN and infinity; the shape is checked first."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {v.shape}")
    if size is not None and v.size != size:
        raise DimensionMismatch(f"{name} has length {v.size}, expected {size}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteValue(f"{name} contains NaN or infinite entries")
    return v


class SparseMatrix:
    """Immutable CSC matrix.

    Attributes
    ----------
    nrows, ncols : int
    col_ptr : int64 array, length ncols + 1, non-decreasing
    row_idx : int64 array; strictly increasing within each column
    values : float64 array, no stored zeros
    col_sums : float64 array, cached per-column sums of the stored values
    entry_col : int64 array mapping each stored entry to its column
    """

    __slots__ = ("nrows", "ncols", "col_ptr", "row_idx", "values", "col_sums", "entry_col")

    def __init__(self, nrows, ncols, col_ptr, row_idx, values):
        nrows, ncols = int(nrows), int(ncols)
        col_ptr = np.asarray(col_ptr, dtype=np.int64)
        row_idx = np.asarray(row_idx, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if col_ptr.shape != (ncols + 1,):
            raise DimensionMismatch("col_ptr must have length ncols + 1")
        if col_ptr[0] != 0 or col_ptr[-1] != values.size:
            raise DimensionMismatch("col_ptr endpoints do not match the value count")
        if np.any(np.diff(col_ptr) < 0):
            raise DimensionMismatch("col_ptr must be non-decreasing")
        if row_idx.shape != values.shape:
            raise DimensionMismatch("row_idx and values must have equal length")
        entry_col = np.repeat(np.arange(ncols, dtype=np.int64), np.diff(col_ptr))
        if row_idx.size:
            if row_idx.min() < 0 or row_idx.max() >= nrows:
                raise IndexOutOfRange(f"row index outside [0, {nrows})")
            same_col = np.diff(entry_col) == 0
            if np.any(same_col & (np.diff(row_idx) <= 0)):
                raise DimensionMismatch("row indices must increase strictly within each column")
        if not np.all(np.isfinite(values)):
            raise NonFiniteValue("matrix values contain NaN or infinite entries")
        self._store(nrows, ncols, col_ptr, row_idx, values, entry_col)

    @classmethod
    def _trusted(cls, nrows, ncols, col_ptr, row_idx, values, entry_col) -> "SparseMatrix":
        """A matrix on arrays that already hold every invariant: nothing is checked or copied."""
        A = object.__new__(cls)
        A._store(nrows, ncols, col_ptr, row_idx, values, entry_col)
        return A

    def _store(self, nrows, ncols, col_ptr, row_idx, values, entry_col):
        self.nrows, self.ncols = nrows, ncols
        self.col_ptr, self.row_idx, self.values, self.entry_col = col_ptr, row_idx, values, entry_col
        # bincount of no entries comes back int64, hence the cast
        self.col_sums = np.bincount(entry_col, weights=values, minlength=ncols).astype(np.float64, copy=False)

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (rows, cols, values) of the stored entries in column-major order."""
        return self.row_idx.copy(), self.entry_col.copy(), self.values.copy()

    def diagonal(self) -> np.ndarray:
        """Dense vector of diagonal entries (zeros where unstored)."""
        n = min(self.nrows, self.ncols)
        d = np.zeros(n)
        on_diag = self.row_idx == self.entry_col
        hits = self.row_idx[on_diag]
        keep = hits < n
        d[hits[keep]] = self.values[on_diag][keep]
        return d

    def transpose(self) -> "SparseMatrix":
        # a stable sort by row keeps the columns increasing within each row
        order = np.argsort(self.row_idx, kind="stable")
        return _from_canonical(
            self.ncols, self.nrows, self.entry_col[order], self.row_idx[order], self.values[order]
        )

    def to_dense(self) -> np.ndarray:
        """Densify; intended for small test oracles only."""
        if self.nrows * self.ncols > _DENSE_LIMIT:
            raise TooLargeForDense(f"{self.nrows}x{self.ncols} exceeds the dense limit")
        dense = np.zeros((self.nrows, self.ncols))
        dense[self.row_idx, self.entry_col] = self.values
        return dense

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


def is_symmetric(A: SparseMatrix) -> bool:
    """Structural and value symmetry within the relative tolerance _SYMMETRY_RTOL."""
    if A.nrows != A.ncols:
        return False
    T = A.transpose()
    if not (np.array_equal(A.col_ptr, T.col_ptr) and np.array_equal(A.row_idx, T.row_idx)):
        return False
    scale = np.maximum(np.abs(A.values), np.abs(T.values))
    return bool(np.all(np.abs(A.values - T.values) <= _SYMMETRY_RTOL * scale))


def from_arrays(nrows, ncols, rows, cols, values) -> SparseMatrix:
    """Build a matrix from parallel coordinate arrays.

    Duplicate positions are summed; entries whose sum is exactly zero are
    dropped, so ``nnz`` counts true stored nonzeros.  Input already in
    column-major order without duplicates (the order ``triplets`` returns and
    Matrix Market collections store) skips the sort.  The result never shares
    memory with the inputs.
    """
    nrows, ncols = int(nrows), int(ncols)
    if nrows < 0 or ncols < 0:
        raise DimensionMismatch("matrix dimensions must be nonnegative")
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(values, dtype=np.float64)
    if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
        raise DimensionMismatch("rows, cols and values must be equal-length 1-D arrays")
    if rows.size:
        if rows.min() < 0 or rows.max() >= nrows:
            raise IndexOutOfRange(f"row index outside [0, {nrows})")
        if cols.min() < 0 or cols.max() >= ncols:
            raise IndexOutOfRange(f"column index outside [0, {ncols})")
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValue("matrix values contain NaN or infinite entries")

    if vals.size:
        key = cols * np.int64(nrows) + rows
        if np.all(key[1:] > key[:-1]):
            # canonical: what the sort below would give, as 0.0 + v is v; the
            # boolean index copies, so nothing aliases the caller's arrays
            keep = vals != 0.0
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        else:
            uniq, inverse = np.unique(key, return_inverse=True)
            summed = np.bincount(inverse, weights=vals, minlength=uniq.size)
            keep = summed != 0.0
            key = uniq[keep]
            vals = summed[keep]
            rows = key % nrows
            cols = key // nrows
    return _from_canonical(nrows, ncols, rows, cols, vals)


def _from_canonical(nrows, ncols, rows, cols, values) -> SparseMatrix:
    """A matrix that takes over coordinate arrays already in column-major order
    with no duplicate, zero or non-finite entry; nothing is checked or copied."""
    col_ptr = np.zeros(ncols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=ncols), out=col_ptr[1:])
    return SparseMatrix._trusted(nrows, ncols, col_ptr, rows, values, cols)


def from_triplets(nrows, ncols, entries) -> SparseMatrix:
    """Build a matrix from an iterable of (row, col, value) triplets."""
    entries = list(entries)
    if not entries:
        return from_arrays(nrows, ncols, [], [], [])
    rows, cols, vals = zip(*entries)
    return from_arrays(nrows, ncols, rows, cols, vals)


def spmv(A: SparseMatrix, x) -> np.ndarray:
    """Compute A @ x in O(nnz): one multiply and one add per stored entry."""
    x = np.asarray(x, np.float64)
    if x.shape != (A.ncols,):
        raise DimensionMismatch(f"x has length {x.shape}, expected {A.ncols}")
    if A.values.size == 0:
        return np.zeros(A.nrows)
    # the gather is a fresh array, so it takes the products in place: one nnz
    # temporary, and v * x == x * v bit for bit; positional, as bincount's
    # keyword parsing is a measurable share of a small product
    terms = x[A.entry_col]
    terms *= A.values
    return np.bincount(A.row_idx, terms, A.nrows)


def spmv_transpose(A: SparseMatrix, c) -> np.ndarray:
    """Compute A.T @ c in O(nnz) without materializing the transpose."""
    c = np.asarray(c, np.float64)
    if c.shape != (A.nrows,):
        raise DimensionMismatch(f"c has length {c.shape}, expected {A.nrows}")
    if A.values.size == 0:
        return np.zeros(A.ncols)
    terms = c[A.row_idx]
    terms *= A.values
    return np.bincount(A.entry_col, terms, A.ncols)
