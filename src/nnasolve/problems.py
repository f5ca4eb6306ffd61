"""Problem ingestion and generation: Matrix Market files, seeded random
instances, and residual-trace serialization.

Randomness comes from a counter-based splitmix64 stream (documented below),
so identical (parameters, seed) pairs produce bit-identical instances on any
platform.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import (
    IndexOutOfRange,
    NonFiniteValue,
    ParseError,
    TooManyNonzeros,
    UnsupportedFormat,
)
from .nna import SolveReport, _norm
from .sparse import SparseMatrix, from_arrays, spmv

__all__ = [
    "ProblemInstance",
    "SplitMix64",
    "gen_dense_uniform",
    "gen_sparse_random",
    "read_matrix_market",
    "read_trace",
    "write_matrix_market",
    "write_trace",
]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


class SplitMix64:
    """Counter-based splitmix64 stream.

    Output i (1-based) is mix(seed + i * 0x9E3779B97F4A7C15) with the
    standard xor-shift-multiply finalizer; all arithmetic is modulo 2^64.
    The object keeps a counter, so successive calls continue the stream.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def next_u64(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError(f"cannot draw {n} values; n must be nonnegative")
        ctr = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        z = self._seed + _GOLDEN * ctr
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))

    def uniform(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """n doubles uniform on [lo, hi), using the top 53 bits per draw."""
        u = (self.next_u64(n) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        return lo + (hi - lo) * u

    def below(self, n: int, bound: int) -> np.ndarray:
        """n integers uniform on [0, bound) by reduction (bias < bound / 2^64)."""
        return (self.next_u64(n) % np.uint64(bound)).astype(np.int64)


@dataclass
class ProblemInstance:
    """A matrix, right-hand side, optional known solution, and provenance."""

    A: SparseMatrix
    b: np.ndarray
    x_star: np.ndarray | None
    seed: int
    descriptor: str

    def __post_init__(self):
        if self.x_star is not None:
            defect = _norm(spmv(self.A, self.x_star) - self.b)
            if defect > 1e-10 * (1.0 + _norm(self.b)):
                raise ValueError(f"stated solution does not satisfy A x = b (defect {defect:.3e})")


def gen_dense_uniform(m: int, seed: int) -> ProblemInstance:
    """Dense m x m instance with all entries and b drawn uniform on [0, 1).

    Stream order: the m*m matrix entries row-major, then the m entries of b.
    No known solution is attached.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = SplitMix64(seed)
    vals = rng.uniform(m * m)
    b = rng.uniform(m)
    rows = np.repeat(np.arange(m, dtype=np.int64), m)
    cols = np.tile(np.arange(m, dtype=np.int64), m)
    A = from_arrays(m, m, rows, cols, vals)
    return ProblemInstance(A, b, None, seed, f"dense-uniform m={m} seed={seed}")


def gen_sparse_random(m: int, offdiag_nnz: int, diag_hi: float, seed: int) -> ProblemInstance:
    """Sparse m x m instance: off-diagonal positions sampled without
    replacement with values uniform on [0, 1), diagonal uniform on
    [0, diag_hi), and b synthesized from a known solution x* uniform on
    [0.5, 1.5) so convergence is measurable against truth.

    Stream order: position draws (variable-length rejection batches), then
    off-diagonal values, diagonal values, and x*.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if offdiag_nnz < 0:
        raise ValueError("offdiag_nnz must be nonnegative")
    max_off = m * (m - 1)
    if offdiag_nnz > max_off:
        raise TooManyNonzeros(f"requested {offdiag_nnz} off-diagonal entries, only {max_off} positions")
    rng = SplitMix64(seed)

    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < offdiag_nnz:
        remaining = offdiag_nnz - chosen.size
        batch = rng.below(remaining + remaining // 8 + 64, max_off)
        merged = np.concatenate([chosen, batch])
        _, first = np.unique(merged, return_index=True)
        chosen = merged[np.sort(first)][:offdiag_nnz]  # first-drawn wins; keeps draw order

    r = chosen // (m - 1) if m > 1 else np.empty(0, dtype=np.int64)
    cpos = chosen % (m - 1) if m > 1 else np.empty(0, dtype=np.int64)
    c = cpos + (cpos >= r)
    off_vals = rng.uniform(offdiag_nnz)
    diag_vals = rng.uniform(m, 0.0, diag_hi)
    x_star = rng.uniform(m, 0.5, 1.5)

    all_rows = np.concatenate([r, np.arange(m, dtype=np.int64)])
    all_cols = np.concatenate([c, np.arange(m, dtype=np.int64)])
    all_vals = np.concatenate([off_vals, diag_vals])
    A = from_arrays(m, m, all_rows, all_cols, all_vals)
    b = spmv(A, x_star)
    desc = f"sparse-random m={m} offdiag={offdiag_nnz} diag_hi={diag_hi} seed={seed} (b = A x*)"
    return ProblemInstance(A, b, x_star, seed, desc)


# ---------------------------------------------------------------------------
# Matrix Market (coordinate real general/symmetric)

_ENTRY_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])
# characters per block of whole lines read: memory stays bounded however long
# the file, and a block is long enough that one loadtxt call's fixed cost is
# small against its lines (~8k lines of a 30-character entry)
_READ_BLOCK_CHARS = 1 << 18
_CHUNK_LINES = 4096  # rows per block written by write_trace


def _holds_entry(line: str) -> bool:
    """False for blank lines and % comment lines."""
    text = line.lstrip()
    return bool(text) and text[0] != "%"


def _parse_entries(lines: list[str]) -> np.ndarray | None:
    """Parse the 'row col value' lines among blank and % comment lines; None if
    one is malformed.  Lines holding no % and not all blank go to loadtxt as
    they are (it skips blank lines itself); any others, as their entry lines."""
    text = "".join(lines)
    if "%" in text or text.isspace():
        lines = [*filter(_holds_entry, lines)]
    if not lines:
        return np.empty(0, dtype=_ENTRY_DTYPE)  # loadtxt warns on empty input
    try:
        return np.loadtxt(lines, dtype=_ENTRY_DTYPE, comments=None, ndmin=1)
    except ValueError:
        return None


def _first_error(block: list[str], before: int, room: int, nrows: int, ncols: int) -> Exception:
    """The first error, in file order, of a block read after line `before` that
    has room for `room` more entries.

    Each entry line is parsed alone by the parser that rejected the block, so
    what is accepted and what is reported can never disagree.
    """
    for where, line in enumerate(block, start=before + 1):
        if not _holds_entry(line):
            continue
        if room == 0:
            return ParseError(where, "more entries than declared in the size line")
        room -= 1
        entry = _parse_entries([line])
        if entry is None:
            return ParseError(where, f"malformed entry {line.strip()!r}, expected 'row col value'")
        ((i, j, v),) = entry.tolist()
        if not (1 <= i <= nrows and 1 <= j <= ncols):
            return IndexOutOfRange(f"line {where}: entry ({i}, {j}) outside {nrows}x{ncols}")
        if not math.isfinite(v):
            return NonFiniteValue(f"line {where}: non-finite value {line.split()[2]!r}")
    # loadtxt skips exactly the lines _holds_entry drops, so a rejected block holds an error
    raise AssertionError(f"no error in the rejected block after line {before}")


def read_matrix_market(path) -> SparseMatrix:
    """Read a Matrix Market coordinate file (real, general or symmetric).

    Symmetric files are expanded to full storage by mirroring off-diagonal
    entries; 1-based indices are converted; % comment lines are skipped.
    Entries are read in blocks of whole lines, and each block takes one
    np.loadtxt call, so indices are plain decimal integers (no ``_`` digit
    separators): the block as it is when it holds no % and is not blank-only,
    else its entry lines.  A block that parses, fits the declared count and
    holds only in-range indices and finite values is kept; any other is
    walked line by line (_first_error) for the first error, which names its
    file line.
    """
    with open(path, "r") as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise ParseError(1, "missing %%MatrixMarket header")
        tokens = header.strip().split()
        if len(tokens) != 5:
            raise ParseError(1, f"header has {len(tokens)} tokens, expected 5")
        _, obj, fmt, fieldkind, symmetry = (t.lower() for t in tokens)
        if obj != "matrix" or fmt != "coordinate":
            raise UnsupportedFormat(f"only 'matrix coordinate' files are supported, got '{obj} {fmt}'")
        if fieldkind != "real":
            raise UnsupportedFormat(f"only real-valued files are supported, got '{fieldkind}'")
        if symmetry not in ("general", "symmetric"):
            raise UnsupportedFormat(f"only general/symmetric files are supported, got '{symmetry}'")

        lineno = 1
        size_line = None
        for line in fh:
            lineno += 1
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            size_line = stripped
            break
        if size_line is None:
            raise ParseError(lineno, "missing size line")
        parts = size_line.split()
        if len(parts) != 3:
            raise ParseError(lineno, f"size line needs 'rows cols nnz', got {size_line!r}")
        try:
            nrows, ncols, nnz = (int(p) for p in parts)
        except ValueError:
            raise ParseError(lineno, f"non-integer size entry in {size_line!r}") from None
        if nrows < 0 or ncols < 0 or nnz < 0:
            raise ParseError(lineno, f"negative size entry in {size_line!r}")

        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=np.float64)
        got = 0
        while block := fh.readlines(_READ_BLOCK_CHARS):
            entries = _parse_entries(block)
            accept = entries is not None and entries.size <= nnz - got
            if accept:
                i, j, v = entries["i"], entries["j"], entries["v"]
                accept = ((i >= 1) & (i <= nrows) & (j >= 1) & (j <= ncols) & np.isfinite(v)).all()
            if not accept:
                raise _first_error(block, lineno, nnz - got, nrows, ncols)
            end = got + entries.size
            np.subtract(i, 1, out=rows[got:end])
            np.subtract(j, 1, out=cols[got:end])
            vals[got:end] = v
            got = end
            lineno += len(block)
        if got != nnz:
            raise ParseError(lineno, f"declared {nnz} entries but found {got}")

    if symmetry == "symmetric":
        off = rows != cols
        mirror_rows, mirror_cols, mirror_vals = cols[off], rows[off], vals[off]
        rows = np.concatenate([rows, mirror_rows])
        cols = np.concatenate([cols, mirror_cols])
        vals = np.concatenate([vals, mirror_vals])
    return from_arrays(nrows, ncols, rows, cols, vals)


def write_matrix_market(A: SparseMatrix, path) -> None:
    """Write a matrix as 'coordinate real general' with 1-based indices."""
    rows, cols, vals = A.triplets()
    with open(path, "w", newline="") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{A.nrows} {A.ncols} {A.nnz}\n")
        for i, j, v in zip(rows, cols, vals):
            fh.write(f"{i + 1} {j + 1} {v:.17g}\n")


# ---------------------------------------------------------------------------
# trace CSV

_TRACE_HEADER = "iter,residual_l2,kl_b,elapsed_ns"
_ROW_WITH_KL = "%d,%.17g,%.17g,%d\n"
_ROW_WITHOUT_KL = "%d,%.17g,,%d\n"


def write_trace(report: SolveReport, path) -> None:
    """Write per-iteration residual/divergence traces as CSV.

    One row per iteration including iterate 0; infinite divergences are
    serialized as the literal "inf", and solvers without a divergence trace
    leave the column empty.  LF line endings, locale-independent decimals.
    """
    res, kl = report.residual_trace, report.kl_trace
    elapsed = repeat(report.elapsed_ns)
    with open(path, "w", newline="") as fh:
        fh.write(_TRACE_HEADER + "\n")
        for start in range(0, res.size, _CHUNK_LINES):
            stop = min(start + _CHUNK_LINES, res.size)
            split = min(max(start, kl.size), stop)  # rows before split have a divergence
            rows = zip(range(start, split), res[start:split].tolist(), kl[start:split].tolist(), elapsed)
            fh.write("".join(map(_ROW_WITH_KL.__mod__, rows)))
            rows = zip(range(split, stop), res[split:stop].tolist(), elapsed)
            fh.write("".join(map(_ROW_WITHOUT_KL.__mod__, rows)))


def read_trace(path):
    """Read a trace CSV back; returns (iters, residuals, kls, elapsed) arrays.

    Missing divergence entries come back as NaN; "inf" round-trips to inf.
    The columns are parsed into typed buffers, 8 bytes a value, which the
    returned arrays share.
    """
    with open(path, "r", newline="") as fh:
        header = fh.readline().rstrip("\n")
        if header != _TRACE_HEADER:
            raise ParseError(1, f"unexpected trace header {header!r}")
        iters, res, kls, elapsed = array("q"), array("d"), array("d"), array("q")
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != 4:
                raise ParseError(lineno, f"expected 4 columns, got {len(parts)}")
            iters.append(int(parts[0]))
            res.append(float(parts[1]))
            kls.append(float(parts[2]) if parts[2] else math.nan)
            elapsed.append(int(parts[3]))
    return (
        np.frombuffer(iters, dtype=np.int64),
        np.frombuffer(res),
        np.frombuffer(kls),
        np.frombuffer(elapsed, dtype=np.int64),
    )
