"""Compressed sparse column matrices and the two matrix-vector kernels every solver uses.

Storage is CSC with strictly increasing row indices inside each column, no
explicitly stored zeros, and cached column sums.  Matrices are immutable after
construction and safe to share across threads; all operations here are pure.
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
    "spmv",
    "spmv_transpose",
]

_DENSE_LIMIT = 4_000_000  # elements; guards accidental densification


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float64 array, rejecting NaN and infinity."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {v.shape}")
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
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.col_ptr = np.asarray(col_ptr, dtype=np.int64)
        self.row_idx = np.asarray(row_idx, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        if self.col_ptr.shape != (self.ncols + 1,):
            raise DimensionMismatch("col_ptr must have length ncols + 1")
        if self.col_ptr[0] != 0 or self.col_ptr[-1] != self.values.size:
            raise DimensionMismatch("col_ptr endpoints do not match the value count")
        if np.any(np.diff(self.col_ptr) < 0):
            raise DimensionMismatch("col_ptr must be non-decreasing")
        if self.row_idx.shape != self.values.shape:
            raise DimensionMismatch("row_idx and values must have equal length")
        counts = np.diff(self.col_ptr)
        self.entry_col = np.repeat(np.arange(self.ncols, dtype=np.int64), counts)
        if self.row_idx.size:
            if self.row_idx.min() < 0 or self.row_idx.max() >= self.nrows:
                raise IndexOutOfRange(f"row index outside [0, {self.nrows})")
            same_col = np.diff(self.entry_col) == 0
            if np.any(same_col & (np.diff(self.row_idx) <= 0)):
                raise DimensionMismatch("row indices must increase strictly within each column")
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteValue("matrix values contain NaN or infinite entries")
        # bincount of no entries comes back int64, hence the cast
        self.col_sums = np.bincount(self.entry_col, weights=self.values, minlength=self.ncols).astype(np.float64, copy=False)

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
        return from_arrays(self.ncols, self.nrows, self.entry_col, self.row_idx, self.values)

    def to_dense(self) -> np.ndarray:
        """Densify; intended for small test oracles only."""
        if self.nrows * self.ncols > _DENSE_LIMIT:
            raise TooLargeForDense(f"{self.nrows}x{self.ncols} exceeds the dense limit")
        dense = np.zeros((self.nrows, self.ncols))
        dense[self.row_idx, self.entry_col] = self.values
        return dense

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


def from_arrays(nrows, ncols, rows, cols, values) -> SparseMatrix:
    """Build a matrix from parallel coordinate arrays.

    Duplicate positions are summed; entries whose sum is exactly zero are
    dropped, so ``nnz`` counts true stored nonzeros.
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
        uniq, inverse = np.unique(key, return_inverse=True)
        summed = np.bincount(inverse, weights=vals, minlength=uniq.size)
        keep = summed != 0.0
        key = uniq[keep]
        vals = summed[keep]
        rows = key % nrows
        cols = key // nrows
    col_counts = np.bincount(cols, minlength=ncols) if vals.size else np.zeros(ncols, dtype=np.int64)
    col_ptr = np.zeros(ncols + 1, dtype=np.int64)
    np.cumsum(col_counts, out=col_ptr[1:])
    return SparseMatrix(nrows, ncols, col_ptr, rows, vals)


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
    # positional: bincount's keyword parsing is a measurable share of a small product
    return np.bincount(A.row_idx, A.values * x[A.entry_col], A.nrows)


def spmv_transpose(A: SparseMatrix, c) -> np.ndarray:
    """Compute A.T @ c in O(nnz) without materializing the transpose."""
    c = np.asarray(c, np.float64)
    if c.shape != (A.nrows,):
        raise DimensionMismatch(f"c has length {c.shape}, expected {A.nrows}")
    if A.values.size == 0:
        return np.zeros(A.ncols)
    return np.bincount(A.entry_col, A.values * c[A.row_idx], A.ncols)
