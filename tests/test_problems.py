import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nnasolve import problems
from nnasolve import (
    IndexOutOfRange,
    NonFiniteValue,
    ParseError,
    SolveReport,
    SolveStatus,
    SolverConfig,
    SplitMix64,
    TooManyNonzeros,
    UnsupportedFormat,
    default_tolerance,
    from_arrays,
    gen_dense_uniform,
    gen_sparse_random,
    nna_solve,
    read_matrix_market,
    read_trace,
    spmv,
    write_matrix_market,
    write_trace,
)


# ---------------------------------------------------------------------------
# splitmix64 stream

def reference_splitmix(seed, index):
    # independent pure-int oracle for the vectorized stream
    mask = (1 << 64) - 1
    z = (seed + index * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_splitmix_matches_pure_python_reference():
    rng = SplitMix64(42)
    got = rng.next_u64(5).tolist()
    assert got == [reference_splitmix(42, i) for i in range(1, 6)]
    # the counter continues the stream
    more = rng.next_u64(2).tolist()
    assert more == [reference_splitmix(42, 6), reference_splitmix(42, 7)]


def test_splitmix_rejects_a_negative_count():
    # a negative n would move the counter back, so a later draw would repeat one
    rng = SplitMix64(3)
    first = rng.uniform(2)
    for draw in (rng.next_u64, rng.uniform, lambda n: rng.below(n, 10)):
        with pytest.raises(ValueError):
            draw(-2)
    assert not np.any(np.isin(rng.uniform(2), first))
    assert np.array_equal(rng.next_u64(0), np.empty(0, dtype=np.uint64))


def test_splitmix_uniform_range():
    u = SplitMix64(7).uniform(10_000)
    assert np.all((u >= 0.0) & (u < 1.0))
    v = SplitMix64(7).uniform(100, 2.0, 5.0)
    assert np.all((v >= 2.0) & (v < 5.0))


# ---------------------------------------------------------------------------
# generators

def test_dense_uniform_deterministic_and_in_range():
    a = gen_dense_uniform(10, 42)
    b = gen_dense_uniform(10, 42)
    assert np.array_equal(a.A.values, b.A.values)
    assert np.array_equal(a.b, b.b)
    assert a.A.nnz == 100
    assert np.all(a.A.values > 0.0) and np.all(a.A.values < 1.0)
    assert a.x_star is None


def test_dense_uniform_mean_near_half():
    inst = gen_dense_uniform(100, 3)
    assert inst.A.values.mean() == pytest.approx(0.5, abs=0.05)


def test_sparse_random_structure():
    inst = gen_sparse_random(50, 120, 100.0, 9)
    rows, cols, _ = inst.A.triplets()
    off = rows != cols
    assert int(np.count_nonzero(off)) == 120
    assert inst.A.nnz == 50 + 120
    assert np.all(inst.A.diagonal() > 0.0)
    assert np.all(inst.A.diagonal() < 100.0)
    # consistency with the stated solution is exact by construction
    assert np.linalg.norm(spmv(inst.A, inst.x_star) - inst.b) <= 1e-10 * (1 + np.linalg.norm(inst.b))


def test_sparse_random_deterministic():
    a = gen_sparse_random(40, 200, 10.0, 5)
    b = gen_sparse_random(40, 200, 10.0, 5)
    assert np.array_equal(a.A.row_idx, b.A.row_idx)
    assert np.array_equal(a.A.values, b.A.values)
    assert np.array_equal(a.x_star, b.x_star)


def test_sparse_random_diagonal_case():
    inst = gen_sparse_random(2, 0, 10.0, 0)
    report = nna_solve(inst.A, inst.b, cfg=SolverConfig(eps_tol=default_tolerance(inst.b)))
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations <= 2


def test_sparse_random_too_many_nonzeros():
    with pytest.raises(TooManyNonzeros):
        gen_sparse_random(3, 7, 1.0, 0)


def test_problem_instance_rejects_inconsistent_solution():
    from nnasolve import ProblemInstance
    from conftest import identity

    with pytest.raises(ValueError):
        ProblemInstance(identity(2), np.array([1.0, 1.0]), np.array([5.0, 5.0]), 0, "bad")


# ---------------------------------------------------------------------------
# matrix market

def test_read_minimal_file(tmp_path):
    path = tmp_path / "id.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n% identity\n2 2 2\n1 1 1.0\n2 2 1.0\n"
    )
    A = read_matrix_market(path)
    assert A.shape == (2, 2)
    assert np.array_equal(A.to_dense(), np.eye(2))


def test_read_symmetric_expansion(tmp_path):
    path = tmp_path / "sym.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 2.0\n2 1 3.0\n"
    )
    A = read_matrix_market(path)
    assert A.nnz == 3
    assert np.array_equal(A.to_dense(), np.array([[2.0, 3.0], [3.0, 0.0]]))


def test_read_rejects_unsupported_variants(tmp_path):
    for header in (
        "%%MatrixMarket matrix coordinate complex general",
        "%%MatrixMarket matrix coordinate pattern general",
        "%%MatrixMarket matrix array real general",
        "%%MatrixMarket matrix coordinate real skew-symmetric",
    ):
        path = tmp_path / "bad.mtx"
        path.write_text(header + "\n1 1 1\n1 1 1.0\n")
        with pytest.raises(UnsupportedFormat):
            read_matrix_market(path)


def test_read_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "broken.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 oops 1.0\n")
    with pytest.raises(ParseError) as err:
        read_matrix_market(path)
    assert err.value.line == 3

    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n")
    with pytest.raises(ParseError):
        read_matrix_market(path)


_HEADER = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("%%MatrixMarket matrix coordinate real\n1 1 0\n", 1, "header has 4 tokens, expected 5"),
        (_HEADER + "% only a comment\n\n", 3, "missing size line"),
        (_HEADER + "2 2\n", 2, "size line needs 'rows cols nnz', got '2 2'"),
        (_HEADER + "% c\n2 two 1\n", 3, "non-integer size entry in '2 two 1'"),
        (_HEADER + "2 -2 1\n", 2, "negative size entry in '2 -2 1'"),
    ],
    ids=["header-tokens", "no-size-line", "short-size-line", "non-integer-size", "negative-size"],
)
def test_read_header_and_size_line_errors(tmp_path, text, line, message):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        read_matrix_market(path)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_read_index_out_of_range(tmp_path):
    path = tmp_path / "oob.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n")
    with pytest.raises(IndexOutOfRange):
        read_matrix_market(path)


def test_read_handles_crlf_and_numeric_forms(tmp_path):
    path = tmp_path / "crlf.mtx"
    path.write_bytes(
        b"%%MatrixMarket matrix coordinate real general\r\n"
        b"2 2 3\r\n"
        b"1 1 1e3\r\n"
        b"2 2 5\r\n"
        b"1 2 -2.5E-1\r\n"
    )
    A = read_matrix_market(path)
    assert np.array_equal(A.to_dense(), np.array([[1000.0, -0.25], [0.0, 5.0]]))


def test_read_sums_duplicate_entries(tmp_path):
    path = tmp_path / "dup.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n1 1 2.0\n2 2 1.0\n"
    )
    A = read_matrix_market(path)
    assert A.to_dense()[0, 0] == 3.0
    assert A.nnz == 2


def test_gen_sparse_random_rejects_a_negative_count():
    with pytest.raises(ValueError, match="offdiag_nnz"):
        gen_sparse_random(10, -5, 5.0, 0)


def test_gen_sparse_random_single_row():
    inst = gen_sparse_random(1, 0, 5.0, 3)
    assert inst.A.shape == (1, 1)
    assert inst.A.nnz == 1
    assert inst.b[0] == pytest.approx(inst.A.values[0] * inst.x_star[0])


def test_matrix_market_round_trip(tmp_path):
    inst = gen_sparse_random(25, 80, 50.0, 11)
    path = tmp_path / "rt.mtx"
    write_matrix_market(inst.A, path)
    back = read_matrix_market(path)
    assert back.shape == inst.A.shape
    assert np.array_equal(back.row_idx, inst.A.row_idx)
    assert np.array_equal(back.col_ptr, inst.A.col_ptr)
    assert np.array_equal(back.values, inst.A.values)


def test_matrix_market_against_scipy(tmp_path):
    scipy_io = pytest.importorskip("scipy.io")
    inst = gen_sparse_random(15, 40, 10.0, 2)
    path = tmp_path / "x.mtx"
    write_matrix_market(inst.A, path)
    theirs = scipy_io.mmread(str(path)).toarray()
    assert np.array_equal(theirs, inst.A.to_dense())


# Entry errors in a 10,000-entry file.  The reader parses the body in chunks
# of lines, so these sit past chunk boundaries and must still name their line.

_BIG = 10_000


def write_big(path, edits=(), declared=_BIG):
    """100 x 100 general file with _BIG entry lines on file lines 3 .. _BIG + 2;
    `edits` replaces whole lines, keyed by 1-based file line number."""
    lines = ["%%MatrixMarket matrix coordinate real general\n", f"100 100 {declared}\n"]
    lines += [f"{k % 100 + 1} {k * 7 % 100 + 1} {0.5 * k + 1}\n" for k in range(_BIG)]
    for lineno, text in dict(edits).items():
        lines[lineno - 1] = text
    path.write_text("".join(lines))
    return path


@pytest.mark.parametrize(
    "text",
    ["1 oops 1.0\n", "1 1 1.0 % c\n", "1_0 1 1.0\n"],
    ids=["malformed", "inline-comment", "digit-separator"],
)
def test_read_bad_entry_past_chunk_boundary_names_its_line(tmp_path, text):
    # comment and blank lines earlier in the body still count as file lines
    path = write_big(tmp_path / "bad.mtx", {100: "% note\n", 5000: "   \n", 9000: "\n", 9002: text})
    with pytest.raises(ParseError) as err:
        read_matrix_market(path)
    assert err.value.line == 9002


@pytest.mark.parametrize("i, j", [(101, 1), (1, 101), (0, 1), (1, 0)])
def test_read_index_out_of_range_past_chunk_boundary(tmp_path, i, j):
    path = write_big(tmp_path / "oob.mtx", {7002: f"{i} {j} 1.0\n"})
    with pytest.raises(IndexOutOfRange, match=rf"^line 7002: entry \({i}, {j}\) outside 100x100$"):
        read_matrix_market(path)


def test_read_nan_past_chunk_boundary(tmp_path):
    path = write_big(tmp_path / "nan.mtx", {5002: "1 1 nan\n"})
    with pytest.raises(NonFiniteValue, match=r"^line 5002: non-finite value 'nan'$"):
        read_matrix_market(path)


def test_read_more_entries_than_declared(tmp_path):
    path = write_big(tmp_path / "more.mtx", declared=_BIG - 1)
    with pytest.raises(ParseError, match="more entries than declared") as err:
        read_matrix_market(path)
    assert err.value.line == _BIG + 2  # the first extra entry


def test_read_fewer_entries_than_declared(tmp_path):
    path = write_big(tmp_path / "fewer.mtx", declared=_BIG + 1)
    with pytest.raises(ParseError, match=f"declared {_BIG + 1} entries but found {_BIG}") as err:
        read_matrix_market(path)
    assert err.value.line == _BIG + 2  # end of file


def test_read_empty_body_is_empty_matrix_without_warnings(tmp_path):
    path = tmp_path / "empty.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n% c\n5 4 0\n% only comments\n\n   \n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        A = read_matrix_market(path)
    assert caught == []
    assert A.shape == (5, 4)
    assert A.nnz == 0


_NONZERO_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -1e300]),
).filter(lambda v: v != 0.0)  # from_arrays drops zeros, so they cannot round-trip as entries


@st.composite
def sparse_matrices(draw):
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    cells = []
    if nrows and ncols:
        cells = draw(st.lists(st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)), unique=True))
    vals = draw(st.lists(_NONZERO_FLOATS, min_size=len(cells), max_size=len(cells)))
    rows = [r for r, _ in cells]
    cols = [c for _, c in cells]
    return from_arrays(nrows, ncols, rows, cols, vals)


_FILLER_LINES = st.sampled_from(["% comment\n", "\n", "   \n", "\t% indented\n", "%\n"])


@settings(max_examples=150, deadline=None)
@given(
    A=sparse_matrices(),
    fillers=st.lists(st.tuples(st.integers(1, 50), _FILLER_LINES), max_size=8),
    crlf=st.booleans(),
)
@example(A=from_arrays(3, 2, [], [], []), fillers=[], crlf=False)
@example(A=from_arrays(1, 1, [0], [0], [5e-324]), fillers=[(1, "% c\n")], crlf=True)
def test_matrix_market_round_trip_property(tmp_path_factory, A, fillers, crlf):
    path = tmp_path_factory.mktemp("mm") / "a.mtx"
    write_matrix_market(A, path)
    lines = path.read_text().splitlines(keepends=True)
    for at, text in fillers:  # anywhere after the header line
        lines.insert(min(at, len(lines)), text)
    text = "".join(lines)
    path.write_bytes((text.replace("\n", "\r\n") if crlf else text).encode())
    back = read_matrix_market(path)
    assert back.shape == A.shape
    assert np.array_equal(back.col_ptr, A.col_ptr)
    assert np.array_equal(back.row_idx, A.row_idx)
    assert back.values.tobytes() == A.values.tobytes()


# Reading block by block.  With the block size cut to 23 characters, every
# block below is three 8-character lines, so small files cross several block
# boundaries.  A block without comments is parsed in one loadtxt call; a block
# with a comment or without entries, or one that call rejects, goes line by
# line through _parse_until_error.

_ENTRY_8 = "{} {} {}.0\n"  # 8 characters for one-digit fields
_BLANK_8 = "       \n"
_COMMENT_8 = "% note \n"


def write_lines(path, body, declared=None):
    """3 x 3 general file; declares as many entries as body holds unless told otherwise."""
    entries = sum(1 for line in body if line not in (_BLANK_8, _COMMENT_8))
    head = f"%%MatrixMarket matrix coordinate real general\n3 3 {entries if declared is None else declared}\n"
    path.write_text(head + "".join(body))
    return path


def entry_lines(n):
    """n <= 9 entry lines at distinct positions of a 3 x 3 matrix."""
    return [_ENTRY_8.format(k % 3 + 1, k // 3 % 3 + 1, k % 9 + 1) for k in range(n)]


@pytest.fixture
def small_blocks(monkeypatch):
    """Three 8-character lines per block; counts the blocks parsed line by line."""
    monkeypatch.setattr(problems, "_READ_BLOCK_CHARS", 23)
    slow = []
    line_by_line = problems._parse_until_error

    def spy(lines):
        slow.append(list(lines))
        return line_by_line(lines)

    monkeypatch.setattr(problems, "_parse_until_error", spy)
    return slow


def test_read_comment_in_the_middle_block_of_three(tmp_path, small_blocks):
    body = entry_lines(8)
    body.insert(4, _COMMENT_8)  # file line 7, the middle of lines 6-8
    A = read_matrix_market(write_lines(tmp_path / "c.mtx", body))
    clean = read_matrix_market(write_lines(tmp_path / "clean.mtx", entry_lines(8)))
    assert small_blocks == [[body[3], body[5]]]  # only the middle block went line by line
    assert np.array_equal(A.to_dense(), clean.to_dense())


def test_read_block_of_blank_lines_only(tmp_path, small_blocks):
    body = entry_lines(3) + [_BLANK_8] * 3 + entry_lines(6)[3:]
    A = read_matrix_market(write_lines(tmp_path / "b.mtx", body))
    assert small_blocks == [[]]  # the blank block never reaches loadtxt
    clean = read_matrix_market(write_lines(tmp_path / "clean.mtx", entry_lines(6)))
    assert np.array_equal(A.to_dense(), clean.to_dense())


def test_read_one_entry_too_many_inside_a_parsing_block(tmp_path, small_blocks):
    # the second block (file lines 6-8) parses, but only 1 of its 3 entries fits
    path = write_lines(tmp_path / "more.mtx", entry_lines(6), declared=4)
    with pytest.raises(ParseError, match="more entries than declared") as err:
        read_matrix_market(path)
    assert err.value.line == 7


def test_read_malformed_last_block(tmp_path, small_blocks):
    body = entry_lines(6) + [_BLANK_8, "1 x 1.0\n"]
    with pytest.raises(ParseError, match=r"malformed entry '1 x 1.0'") as err:
        read_matrix_market(write_lines(tmp_path / "bad.mtx", body, declared=7))
    assert err.value.line == 10


@settings(max_examples=100, deadline=None)
@given(
    A=sparse_matrices(),
    fillers=st.lists(st.tuples(st.integers(2, 50), _FILLER_LINES), min_size=1, max_size=8),
    block_chars=st.integers(1, 80),
)
def test_read_with_and_without_fillers_gives_identical_arrays(tmp_path_factory, A, fillers, block_chars):
    directory = tmp_path_factory.mktemp("blocks")
    plain, filled = directory / "plain.mtx", directory / "filled.mtx"
    write_matrix_market(A, plain)
    lines = plain.read_text().splitlines(keepends=True)
    for at, text in fillers:  # anywhere after the size line
        lines.insert(min(at, len(lines)), text)
    filled.write_text("".join(lines))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problems, "_READ_BLOCK_CHARS", block_chars)
        a, b = read_matrix_market(plain), read_matrix_market(filled)
    for name in ("col_ptr", "row_idx", "values"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes() == getattr(A, name).tobytes()


# ---------------------------------------------------------------------------
# trace CSV

def make_report(residuals, kls, elapsed=12345):
    return SolveReport(
        status=SolveStatus.CONVERGED,
        iterations=len(residuals) - 1,
        x=np.zeros(1),
        residual_trace=np.asarray(residuals),
        kl_trace=np.asarray(kls),
        elapsed_ns=elapsed,
        matvec_count=0,
    )


def test_trace_row_count_and_header(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(make_report([2.0, 0.0], [0.5, 0.0]), path)
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == "iter,residual_l2,kl_b,elapsed_ns"
    assert len([ln for ln in lines if ln]) == 3  # header + 2 data rows
    assert "\r" not in text


@pytest.mark.parametrize(
    "text, message",
    [
        ("iter,residual_l2,kl_b\n0,1.0,\n", "line 1: unexpected trace header 'iter,residual_l2,kl_b'"),
        ("iter,residual_l2,kl_b,elapsed_ns\n0,1.0,,5\n1,0.5,5\n", "line 3: expected 4 columns, got 3"),
    ],
    ids=["header", "columns"],
)
def test_read_trace_errors(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        read_trace(path)
    assert str(err.value) == message


def test_trace_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    residuals = rng.uniform(1e-12, 1e3, 17)
    kls = rng.uniform(1e-16, 1.0, 17)
    kls[3] = math.inf
    path = tmp_path / "t.csv"
    write_trace(make_report(residuals, kls, elapsed=987654321), path)
    iters, res, kl, elapsed = read_trace(path)
    assert np.array_equal(iters, np.arange(17))
    assert np.array_equal(res, residuals)  # 17 significant digits round-trip exactly
    assert kl[3] == math.inf
    mask = np.arange(17) != 3
    assert np.array_equal(kl[mask], kls[mask])
    assert np.all(elapsed == 987654321)


def test_trace_infinity_serialized_as_inf(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(make_report([1.0], [math.inf]), path)
    assert path.read_text().splitlines()[1].split(",")[2] == "inf"


def test_trace_without_divergence_column(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(make_report([3.0, 1.0, 0.0], []), path)
    iters, res, kl, _ = read_trace(path)
    assert len(iters) == 3
    assert np.all(np.isnan(kl))


def reference_write_trace(report, path):
    """The row-by-row writer that write_trace replaced; its bytes are the format."""
    res, kl = report.residual_trace, report.kl_trace
    with open(path, "w", newline="") as fh:
        fh.write("iter,residual_l2,kl_b,elapsed_ns\n")
        for n in range(res.size):
            kl_text = f"{kl[n]:.17g}" if n < kl.size else ""
            fh.write(f"{n},{res[n]:.17g},{kl_text},{report.elapsed_ns}\n")


@pytest.mark.parametrize("with_kl", [True, False], ids=["nna", "baseline"])
def test_trace_bytes_match_reference_writer(tmp_path, with_kl):
    rng = np.random.default_rng(1)
    rows = 9000  # several write blocks
    residuals = rng.uniform(1e-12, 1e3, rows) * 10.0 ** rng.integers(-300, 300, rows)
    residuals[:4] = [0.0, 5e-324, 1.7976931348623157e308, 1e-310]
    kls = rng.uniform(0.0, 1.0, rows)
    kls[[0, 7, 8191]] = math.inf
    kls[1] = 2.2250738585072014e-308
    report = make_report(residuals, kls if with_kl else [], elapsed=987654321)
    write_trace(report, tmp_path / "new.csv")
    reference_write_trace(report, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


_TRACE_FLOATS = st.floats(allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(
    residuals=st.lists(_TRACE_FLOATS, min_size=1, max_size=40),
    kl_values=st.lists(_TRACE_FLOATS, min_size=40, max_size=40),
    with_kl=st.booleans(),
    elapsed=st.integers(0, 2**62),
)
@example(residuals=[1.0, 0.5], kl_values=[math.inf] * 40, with_kl=True, elapsed=0)
def test_trace_round_trip_property(tmp_path_factory, residuals, kl_values, with_kl, elapsed):
    kls = kl_values[: len(residuals)] if with_kl else []
    path = tmp_path_factory.mktemp("trace") / "t.csv"
    write_trace(make_report(residuals, kls, elapsed=elapsed), path)
    iters, res, kl, back_elapsed = read_trace(path)
    assert np.array_equal(iters, np.arange(len(residuals)))
    assert res.tobytes() == np.asarray(residuals, dtype=np.float64).tobytes()
    if with_kl:
        assert kl.tobytes() == np.asarray(kls, dtype=np.float64).tobytes()
    else:
        assert np.all(np.isnan(kl))
    assert np.all(back_elapsed == elapsed)
