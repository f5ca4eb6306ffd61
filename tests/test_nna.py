import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nnasolve
from nnasolve import (
    NegativeEntry,
    NegativeInput,
    NonFiniteValue,
    SplitMix64,
    NonPositiveRhs,
    SingularMatrix,
    SolveStatus,
    SolverConfig,
    TooLargeForDense,
    UnshiftableRow,
    ZeroColumn,
    default_tolerance,
    embed,
    from_arrays,
    from_triplets,
    gen_dense_uniform,
    gen_sparse_random,
    general_solve,
    kl_divergence,
    l2_bridge,
    nna_solve,
    nna_step,
    nna_step_counted,
    rate_certificate,
    rescale,
    shift,
    spmv,
    spmv_transpose,
)
from nnasolve.nna import (
    _AA_WINDOW,
    _CERTIFICATE_TOL,
    _GLL_MEMORY,
    _norm,
    _solve,
)
from conftest import consistent_nonneg, identity, sparse_of


def tilde_start(A):
    x = np.ones(A.ncols) * A.col_sums
    return x / x.sum()


def tilde_of(x, A, b_total):
    return x * A.col_sums / b_total


# ---------------------------------------------------------------------------
# rescale

def test_rescale_identity():
    system = rescale(identity(2), [1.0, 3.0])
    assert np.array_equal(system.a_tilde.to_dense(), np.eye(2))
    assert np.allclose(system.b_tilde, [0.25, 0.75])
    assert system.b_total == 4.0


def test_rescale_diagonal_and_recovery():
    A = sparse_of([[2.0, 0.0], [0.0, 4.0]])
    system = rescale(A, [2.0, 4.0])
    assert np.array_equal(system.a_tilde.to_dense(), np.eye(2))
    assert np.allclose(system.b_tilde, [1 / 3, 2 / 3])
    # direct solve of the rescaled system, mapped back
    x_tilde = np.linalg.solve(system.a_tilde.to_dense(), system.b_tilde)
    assert np.allclose(system.recover(x_tilde), [1.0, 1.0], rtol=1e-12)


def test_rescale_columns_sum_to_one():
    rng = np.random.default_rng(0)
    A, _, _, b = consistent_nonneg(rng, 9)
    system = rescale(A, b)
    assert np.allclose(system.a_tilde.col_sums, np.ones(9), atol=1e-12)
    assert system.b_tilde.sum() == pytest.approx(1.0, abs=1e-12)


def test_rescale_errors():
    with pytest.raises(ZeroColumn):
        rescale(from_triplets(2, 2, [(0, 0, 1.0)]), [1.0, 1.0])
    with pytest.raises(NonPositiveRhs):
        rescale(identity(2), [1.0, 0.0])
    with pytest.raises(NegativeEntry):
        rescale(sparse_of([[1.0, -1.0], [0.0, 1.0]]), [1.0, 1.0])


# ---------------------------------------------------------------------------
# shift

def test_shift_explicit():
    shifted = shift(identity(2), [-1.0, 2.0], 2.0)
    assert shifted.t == 2.0
    assert np.allclose(shifted.b_shifted, [1.0, 4.0])
    assert np.allclose(shifted.a_row_sums, [1.0, 1.0])


def test_shift_auto_zero_when_positive():
    shifted = shift(identity(3), [0.5, 1.0, 2.0], None)
    assert shifted.t == 0.0
    assert np.allclose(shifted.b_shifted, [0.5, 1.0, 2.0])


def test_shift_auto_makes_rhs_positive():
    rng = np.random.default_rng(1)
    A = sparse_of(rng.uniform(0.1, 1.0, (6, 6)))
    b = rng.uniform(-3.0, 1.0, 6)
    shifted = shift(A, b, None)
    assert shifted.t > 0.0
    assert np.all(shifted.b_shifted > 0.0)


def test_shift_unshiftable_row():
    A = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 1.0)])  # row 1 empty
    with pytest.raises(UnshiftableRow):
        shift(A, [1.0, -1.0], None)
    with pytest.raises(UnshiftableRow):
        shift(A, [1.0, -1.0], 5.0)


def test_shift_explicit_too_small():
    with pytest.raises(NonPositiveRhs):
        shift(identity(2), [-5.0, 1.0], 1.0)


@pytest.mark.parametrize(
    "t, error",
    [(-1.0, NegativeInput), (-math.inf, NegativeInput), (math.nan, NonFiniteValue), (math.inf, NonFiniteValue)],
)
def test_shift_explicit_t_outside_zero_to_inf(t, error):
    # the rule SolverConfig applies to t_shift: 0 <= t < inf
    with pytest.raises(error):
        shift(identity(2), [1.0, 2.0], t)


def test_shift_equivalence_between_valid_shifts():
    # two valid shifts must recover the same solution within 10 * eps_tol
    rng = np.random.default_rng(4)
    m = 8
    dense = rng.uniform(0, 1, (m, m))
    np.fill_diagonal(dense, rng.uniform(8, 12, m))
    x_star = rng.uniform(0.5, 1.5, m) - 0.8
    b = dense @ x_star
    A = sparse_of(dense)
    eps = 1e-10
    r1 = nna_solve(A, b, cfg=SolverConfig(eps_tol=eps, t_shift=5.0, max_iter=100_000))
    r2 = nna_solve(A, b, cfg=SolverConfig(eps_tol=eps, t_shift=50.0, max_iter=100_000))
    assert r1.status is SolveStatus.CONVERGED and r2.status is SolveStatus.CONVERGED
    assert np.linalg.norm(r1.x - r2.x) <= 10 * eps


# ---------------------------------------------------------------------------
# nna_step

def test_step_identity_converges_in_one():
    system = rescale(identity(2), [0.3, 0.7])
    x1 = nna_step(system, np.array([0.5, 0.5]))
    assert np.allclose(x1, [0.3, 0.7], rtol=1e-15)


def test_step_hand_computed_two_by_two():
    A = sparse_of([[0.75, 0.25], [0.25, 0.75]])
    system = rescale(A, np.array([0.5, 0.5]))
    x1 = nna_step(system, np.array([0.8, 0.2]))
    # dense oracle evaluation of x * A~^T (b~ / A~ x)
    dense = A.to_dense()
    c = np.array([0.5, 0.5]) / (dense @ np.array([0.8, 0.2]))
    expected = np.array([0.8, 0.2]) * (dense.T @ c)
    assert np.allclose(x1, expected, rtol=1e-15)
    assert np.allclose(x1, [68 / 91, 23 / 91], rtol=1e-12)
    assert np.allclose(x1, [0.747253, 0.252747], atol=5e-7)


def test_step_fixed_point_stays():
    rng = np.random.default_rng(2)
    A, _, x_star, b = consistent_nonneg(rng, 6)
    system = rescale(A, b)
    xt_star = tilde_of(x_star, A, b.sum())
    out = nna_step(system, xt_star)
    assert np.allclose(out, xt_star, rtol=1e-12)


def test_step_preserves_simplex_and_positivity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = int(rng.integers(2, 12))
        A, _, _, b = consistent_nonneg(rng, m)
        system = rescale(A, b)
        x = tilde_start(A)
        for _ in range(200):
            x = nna_step(system, x)
        assert np.all(x > 0.0)
        assert x.sum() == pytest.approx(1.0, abs=1e-10)


def test_step_counted_matches_and_respects_budget():
    rng = np.random.default_rng(5)
    for _ in range(5):
        m = int(rng.integers(3, 25))
        density = rng.uniform(0.2, 0.9)
        dense = rng.uniform(0, 1, (m, m)) * (rng.uniform(0, 1, (m, m)) < density)
        np.fill_diagonal(dense, rng.uniform(0.5, 1.5, m))
        A = sparse_of(dense)
        b = dense @ rng.uniform(0.5, 1.5, m)
        system = rescale(A, b)
        x = tilde_start(A)
        fast = nna_step(system, x)
        slow, flops = nna_step_counted(system, x)
        np.testing.assert_allclose(fast, slow, rtol=1e-13)
        assert flops <= 4 * (A.nnz + m)


# ---------------------------------------------------------------------------
# nna_solve

def test_solve_identity_two_iterations():
    report = nna_solve(identity(2), [2.0, 5.0], cfg=SolverConfig(eps_tol=1e-10))
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations <= 2
    assert np.allclose(report.x, [2.0, 5.0], atol=1e-10)
    assert report.residual_trace.size == report.iterations + 1
    assert report.residual_trace[-1] <= 1e-10


def test_solve_trace_monotone_on_dense_uniform():
    from nnasolve import gen_dense_uniform

    inst = gen_dense_uniform(10, 1)
    report = nna_solve(inst.A, inst.b, cfg=SolverConfig(eps_tol=1e-30, t_shift=100.0, max_iter=300))
    assert np.all(np.diff(report.residual_trace) < 0.0)


def test_solve_traces_robust_to_shift_value():
    # dense-uniform 10x10: the residual traces for widely different shifts
    # nearly overlap, since the shift cancels out of the residual identity
    from nnasolve import gen_dense_uniform

    inst = gen_dense_uniform(10, 1)
    traces = [
        nna_solve(inst.A, inst.b, cfg=SolverConfig(eps_tol=1e-30, t_shift=t, max_iter=100)).residual_trace
        for t in (10.0, 100.0, 1000.0)
    ]
    for other in traces[1:]:
        assert np.abs(other - traces[0]).max() <= 2e-2 * np.abs(traces[0]).max()
    assert all(tr[-1] < tr[0] for tr in traces)


# ---------------------------------------------------------------------------
# the SART limit: with x = y + t*1, r = A 1 and s = A^T 1, one shifted step is
# y' = y + (y + t) * A^T ((b - A y) / (A y + t r)) / s, which tends to the SART
# step y + A^T ((b - A y) / r) / s (Andersen & Kak 1984) as t grows, at O(|y|/t)


def _sart_step(A, b, y, r, s):
    return y + spmv_transpose(A, (b - spmv(A, y)) / r) / s


def test_shifted_step_tends_to_the_sart_step_as_one_over_t():
    inst = gen_sparse_random(30, 120, 10.0, 3)
    A, b = inst.A, inst.b
    y = 1.3 * inst.x_star + 0.2
    sart = _sart_step(A, b, y, spmv(A, np.ones(30)), A.col_sums)
    deviations = []
    for t in (1e2, 1e3, 1e4):
        system = rescale(A, shift(A, b, t).b_shifted)
        x_tilde = (y + t) * system.col_scale / system.b_total
        step = system.recover(nna_step(system, x_tilde)) - t
        deviations.append(np.linalg.norm(step - sart))
    assert deviations[0] == pytest.approx(6.16e-3, rel=0.01)
    for coarse, fine in zip(deviations, deviations[1:]):
        assert 0.09 <= fine / coarse <= 0.11


def test_auto_shifted_general_solve_runs_as_sart():
    # the benchmark's mixed-sign recipe at m = 200: every embedded solve is
    # shifted (c has J zeros), and the auto t (~1.7e4) is far above |x*| <= 1.5;
    # general_solve itself mixes (window _AA_WINDOW), so the loop runs here at
    # window 0 on the embedded system it would solve, from the same all-ones
    # start
    inst = gen_sparse_random(200, 1000, 100.0, 0)
    rows, cols, vals = inst.A.triplets()
    off = np.flatnonzero(rows != cols)
    flip = off[SplitMix64(1).uniform(off.size) < 0.2]
    vals[flip] = -vals[flip]
    A = from_arrays(200, 200, rows, cols, vals)
    b = spmv(A, inst.x_star)
    eps = 1e-4 * float(np.linalg.norm(b))
    emb = embed(A, b)
    report = _solve(emb.P, emb.c, np.ones(emb.P.ncols), SolverConfig(eps_tol=eps), emb.tie, 0)
    assert report.status is SolveStatus.CONVERGED

    r, s = spmv(emb.P, np.ones(emb.P.ncols)), emb.P.col_sums
    y, n = np.ones(emb.P.ncols), 0
    while np.linalg.norm(spmv(A, y[:200]) - b) > eps:
        y = _sart_step(emb.P, emb.c, y, r, s)
        n += 1
    assert report.iterations == n == 739
    assert np.abs(report.x[:200] - y[:200]).max() <= 1e-5


def test_solve_inconsistent_reaches_minimal_divergence():
    rng = np.random.default_rng(6)
    dense = rng.uniform(0.2, 1.0, (3, 2))
    b = rng.uniform(0.5, 1.5, 3)
    A = sparse_of(dense)
    report = nna_solve(A, b, cfg=SolverConfig(eps_tol=1e-12, t_shift=0.0, max_iter=200_000))
    assert report.status is SolveStatus.STAGNATED_MIN_KL
    # brute-force oracle: scan the rescaled solution simplex
    b_tilde = b / b.sum()
    a_tilde = dense / dense.sum(axis=0, keepdims=True)
    s = np.linspace(0.0, 1.0, 10_001)
    candidates = a_tilde @ np.stack([s, 1.0 - s])
    with np.errstate(divide="ignore"):
        logs = np.log(b_tilde[:, None]) - np.log(candidates)
    oracle = float(np.sum(b_tilde[:, None] * logs, axis=0).min())
    assert report.kl_trace[-1] == pytest.approx(oracle, abs=1e-4)


def test_solve_breakdown_reports():
    zero_col = from_triplets(2, 2, [(0, 0, 1.0), (1, 0, 1.0)])
    report = nna_solve(zero_col, [1.0, 1.0])
    assert report.status is SolveStatus.BREAKDOWN
    assert "ZeroColumn" in report.diagnostic

    empty_row = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 1.0)])
    report = nna_solve(empty_row, [1.0, -1.0])
    assert report.status is SolveStatus.BREAKDOWN
    assert "UnshiftableRow" in report.diagnostic

    report = nna_solve(empty_row, [1.0, 1.0])
    assert report.status is SolveStatus.BREAKDOWN
    assert "ZeroDenominator" in report.diagnostic


def test_breakdown_report_is_sized_by_columns():
    # 3 x 2 with column 1 zero: x has one entry per column, not per row
    A = from_triplets(3, 2, [(0, 0, 1.0), (1, 0, 2.0), (2, 0, 1.0)])
    report = nna_solve(A, [1.0, 2.0, 1.0])
    assert report.status is SolveStatus.BREAKDOWN
    assert report.x.shape == (2,)
    assert np.all(np.isnan(report.x))


def test_solve_nonfinite_mid_iteration_is_breakdown():
    # x0 * col_scale overflows to inf in the first iterate; the loop must
    # report that as a typed breakdown, not raise out of nna_solve
    A = from_triplets(2, 2, [(0, 0, 2.0), (1, 1, 2.0), (0, 1, 1.0)])
    report = nna_solve(A, [1.0, 1.0], x0=np.full(2, 1e308))
    assert report.status is SolveStatus.BREAKDOWN
    assert "NonFiniteValue" in report.diagnostic


def reference_solve(A, b, cfg):
    """The solve loop's stopping rules around the residual-form step in plain kernels.

    Returns (status, iterations, residual_trace, kl_trace, products, x) for an
    explicit shift.  The step is x <- x + (x + t) g1 with
    g1 = A^T (r / A (x + t)) / s, r = b - A x and A (x + t) = A x + t A1,
    and (x + t) g - t with the paper's g = A^T (b_t / A (x + t)) / s where
    g1 < -1/2.  products counts
    what the loop counts: one product A x per iterate, one per update, and
    one per paper's g; every traced residual is exact, so none is recomputed.
    """
    t = cfg.t_shift
    shifted = shift(A, b, t)
    b_t, s = shifted.b_shifted, A.col_sums
    b_total = float(b_t.sum())
    q = b_t / b_total
    x = np.ones(A.ncols)
    res, kls, n, products = [], [], 0, 0
    while True:
        ax = spmv(A, x)
        products += 1
        r, den = b - ax, ax + t * shifted.a_row_sums
        res.append(_norm(r))
        kl = kl_divergence(q, den / b_total)
        if n == 0:  # iterate 0's entry is taken at the start scaled onto the simplex
            kl += math.log(den.sum() / b_total)
        kls.append(kl)
        if res[-1] <= cfg.eps_tol:
            return SolveStatus.CONVERGED, n, res, kls, products, x
        if n >= cfg.max_iter:
            return SolveStatus.MAX_ITERATIONS, n, res, kls, products, x
        g1 = spmv_transpose(A, r / den) / s
        products += 1
        # the gap bound at x_n, floored at the rounding of r; off the simplex at n = 0
        gap = float(g1.max()) - float(r.sum()) / b_total
        gap = max(gap, 2.0**-52 * float(((np.abs(b) + np.abs(b - r)) / den).max()))
        if n >= 1 and gap <= _CERTIFICATE_TOL * kl:
            return SolveStatus.STAGNATED_MIN_KL, n, res, kls, products, x
        x_next = x + (x + t) * g1
        low = g1 < -0.5
        if low.any():
            g = spmv_transpose(A, b_t / den) / s
            products += 1
            x_next[low] = (x + t)[low] * g[low] - t
        x = x_next
        n += 1


def _dense_shifted_case():
    # at t = 1e4 the tracked residual reaches 1e-10 twice before the returned x does
    rng = np.random.default_rng(5)
    dense = rng.uniform(0, 1, (5, 5))
    np.fill_diagonal(dense, rng.uniform(2, 3, 5))
    b = dense @ rng.uniform(-0.5, 1.5, 5)
    return sparse_of(dense), b, SolverConfig(eps_tol=1e-10, t_shift=1e4, max_iter=20_000)


def _inconsistent_case():
    # the certificate first holds at iterate 1,444
    rng = np.random.default_rng(6)
    return sparse_of(rng.uniform(0.2, 1.0, (3, 2))), rng.uniform(0.5, 1.5, 3), SolverConfig(
        eps_tol=1e-12, t_shift=0.0, max_iter=200_000
    )


def _sparse_capped_case():
    inst = gen_sparse_random(40, 120, 10.0, 2)
    return inst.A, inst.b, SolverConfig(eps_tol=1e-300, t_shift=0.0, max_iter=500)


def _dense_odd_cap_case():
    # c06's instance at t = 10, capped long before it converges
    inst = gen_dense_uniform(10, 0)
    return inst.A, inst.b, SolverConfig(eps_tol=1e-300, t_shift=10.0, max_iter=1237)


def _wide_case():
    # m = 300, the widest case: it converges at iterate 406
    inst = gen_sparse_random(300, 1500, 100.0, 1)
    return inst.A, inst.b, SolverConfig(eps_tol=1e-6 * float(np.linalg.norm(inst.b)), t_shift=0.0)


@pytest.mark.parametrize(
    "case, expected",
    [
        (_dense_shifted_case, SolveStatus.CONVERGED),
        (_inconsistent_case, SolveStatus.STAGNATED_MIN_KL),
        (_sparse_capped_case, SolveStatus.MAX_ITERATIONS),
        (_dense_odd_cap_case, SolveStatus.MAX_ITERATIONS),
        (_wide_case, SolveStatus.CONVERGED),
    ],
    ids=["dense-converged", "inconsistent-stagnated", "sparse-max-iter", "dense-odd-max-iter", "wide-converged"],
)
def test_solve_loop_matches_plain_kernels(case, expected):
    # the solve loop at window 0 against the same stopping rules around the
    # residual-form step in plain kernels, bit for bit but for the
    # divergence: the loop sums q (delta - log1p delta), kl_divergence
    # q log(q / M x), and the two differ by at most 3.0e-16 on these cases
    A, b, cfg = case()
    report = nna_solve(A, b, cfg=cfg)
    status, iterations, res, kls, products, x = reference_solve(A, b, cfg)
    assert report.status is status is expected
    assert report.iterations == iterations
    np.testing.assert_array_equal(report.residual_trace, res)
    np.testing.assert_allclose(report.kl_trace, kls, rtol=0.0, atol=1e-15)
    assert report.matvec_count == products
    np.testing.assert_array_equal(report.x, x)
    # every entry is a divergence, iterate 0's at the start scaled onto the
    # simplex, so none is negative, not even near a solution, where a sum of
    # q log(q / M x) rounds below 0
    assert np.all(report.kl_trace >= 0.0)


@pytest.mark.parametrize(
    "case",
    [_dense_shifted_case, _inconsistent_case, _sparse_capped_case, _dense_odd_cap_case, _wide_case],
    ids=["dense-converged", "inconsistent-stagnated", "sparse-max-iter", "dense-odd-max-iter", "wide-converged"],
)
def test_residual_form_step_is_the_papers_update(case):
    # x + (x + t) g1, mapped to x_tilde = (x + t) s / B, is nna_step's
    # x_tilde * M^T (q / M x_tilde) to rounding, from the start (off the
    # simplex) and from the iterate after it (on it)
    A, b, cfg = case()
    t = cfg.t_shift
    shifted = shift(A, b, t)
    system = rescale(A, shifted.b_shifted)
    x = np.ones(A.ncols)
    for _ in range(2):
        x_tilde = (x + t) * system.col_scale / system.b_total
        ax = spmv(A, x)
        g1 = spmv_transpose(A, (b - ax) / (ax + t * shifted.a_row_sums)) / A.col_sums
        x = x + (x + t) * g1
        np.testing.assert_allclose((x + t) * system.col_scale / system.b_total, nna_step(system, x_tilde), rtol=1e-12)


@pytest.mark.parametrize("m", [100, 300])
def test_certificate_is_read_from_iterate_one(m):
    # one column: every iterate from 1 on is the minimal-KL point (gap 0,
    # floored at 2^-52), so the run stops at iterate 1.  The start x0 = m puts
    # iterate 0 above the simplex, where g = (m + 1) / 2m < 1 reads a gap
    # below 0: the certificate is not read there, or the run would stop at
    # iterate 0 (the same system at m = 2 is the second case of
    # test_stagnation_streak_skips_the_start_off_the_simplex)
    A = from_arrays(m, 1, np.arange(m), np.zeros(m, dtype=np.int64), np.ones(m))
    b = np.arange(1.0, m + 1.0)
    report = nna_solve(A, b, x0=[float(m)], cfg=SolverConfig(eps_tol=1e-300, t_shift=0.0))
    assert report.status is SolveStatus.STAGNATED_MIN_KL
    assert report.iterations == 1


def test_stagnated_report_carries_a_certificate_that_recomputes():
    # the diagnostic names D(q, M x) and the gap max_j g_j - 1 at x_n, the
    # iterate the run stops at; both recompute from x_n with plain products,
    # and they certify that the minimal divergence is positive, so the system
    # has no solution.  The certificate is read at every iterate, so at
    # x_(n-1) it does not hold yet
    A, b, cfg = _inconsistent_case()
    report = nna_solve(A, b, cfg=cfg)
    n = report.iterations
    found = re.fullmatch(r"certificate at iterate (\d+): D = (\S+), gap = max g - 1 = (\S+)", report.diagnostic)
    assert int(found[1]) == n
    kl, gap = float(found[2]), float(found[3])
    system = rescale(A, b)

    def certificate(x):
        Mx = spmv(system.a_tilde, tilde_of(x, A, system.b_total))
        g = spmv_transpose(system.a_tilde, system.b_tilde / Mx)
        return kl_divergence(system.b_tilde, Mx), g.max() - 1.0

    kl_n, gap_n = certificate(report.x)
    assert kl == pytest.approx(kl_n, rel=1e-6)
    assert gap == pytest.approx(gap_n, rel=1e-3)
    assert 0.0 < gap <= _CERTIFICATE_TOL * kl
    kl_before, gap_before = certificate(nna_solve(A, b, cfg=replace(cfg, max_iter=n - 1)).x)
    assert gap_before > _CERTIFICATE_TOL * kl_before


def test_stagnation_streak_skips_the_start_off_the_simplex():
    # iterate 0 is the start as given, off the simplex, so its kl_trace entry
    # is taken at the start scaled onto the simplex (it read -0.549 when it was
    # taken at the start itself)
    A = from_triplets(2, 2, [(0, 0, 2.0), (1, 1, 1.0), (0, 1, 1.0)])
    report = nna_solve(A, [1.0, 1.0], cfg=SolverConfig(t_shift=0.0, max_iter=1))
    assert report.kl_trace[0] >= report.kl_trace[1] >= 0.0
    system = rescale(A, [1.0, 1.0])
    x_hat = system.col_scale / system.col_scale.sum()
    start = kl_divergence(system.b_tilde, spmv(system.a_tilde, x_hat))
    assert report.kl_trace[0] == pytest.approx(start, rel=1e-12)
    # and the certificate is never read at iterate 0, whose g reads a gap of
    # 0.5 here; every iterate from 1 on is the minimal-KL point, so the run
    # stops at iterate 1
    report = nna_solve(
        from_triplets(2, 1, [(0, 0, 1.0), (1, 0, 1.0)]), [1.0, 2.0],
        cfg=SolverConfig(eps_tol=1e-300, t_shift=0.0),
    )
    assert report.status is SolveStatus.STAGNATED_MIN_KL
    assert report.iterations == 1


def test_solve_memory_per_iterate_is_the_two_traces():
    # each trace keeps 8 bytes an iterate in a typed buffer, with the buffer's
    # growth slack on top; nothing else the run allocates grows with it
    inst = gen_dense_uniform(10, 0)
    cfg = SolverConfig(t_shift=10.0, max_iter=20_000)
    nna_solve(inst.A, inst.b, cfg=SolverConfig(t_shift=10.0, max_iter=10))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        report = nna_solve(inst.A, inst.b, cfg=cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.status is SolveStatus.MAX_ITERATIONS and report.iterations == 20_000
    assert peak <= 24 * report.iterations + 64 * 1024


def test_accelerated_memory_is_the_two_rings():
    # general_solve's loop holds two (w, n) ring buffers of differences,
    # 16 w n bytes.  The rest is the rescaled matrix's values (8 nnz) and
    # k = 20 vectors of length n: k, measured at 19.2 at w = 10 and w = 20
    # alike, counts the loop's own vectors and a product's nnz-long
    # temporaries (nnz = 6 n here).  A third (w, n) array would exceed the
    # bound; test_accelerated_window_and_memory_are_fixed pins w itself.
    inst = gen_sparse_random(5000, 25_000, 100.0, 0)
    A, w, k = inst.A, _AA_WINDOW, 20
    target = 1e-6 * float(np.linalg.norm(inst.b))
    general_solve(A, inst.b, cfg=SolverConfig(eps_tol=target, t_shift=0.0, max_iter=3))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        report = general_solve(A, inst.b, cfg=SolverConfig(eps_tol=target, t_shift=0.0, max_iter=20_000))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.status is SolveStatus.CONVERGED
    assert A.values.min() >= 0.0 and A.ncols == 5000
    assert peak <= 16 * w * A.ncols + 8 * (A.nnz + k * A.ncols) + 64 * 1024


def test_solve_path_imports_no_scipy():
    # importing scipy.sparse costs ~21 MB of resident memory; the solvers and the
    # baselines (least squares included) use numpy only
    code = (
        "import sys, numpy as np\n"
        "from nnasolve import (dominance_class, from_triplets, gauss_seidel_solve, general_solve,\n"
        "    gmres_restarted, minres_solve, nna_solve)\n"
        "A = from_triplets(2, 2, [(0, 0, 2.0), (1, 1, 2.0), (0, 1, 1.0)])\n"
        "assert nna_solve(A, [3.0, 2.0]).status.value == 'converged'\n"
        "B = from_triplets(2, 2, [(0, 0, 2.0), (1, 1, 2.0), (0, 1, -1.0)])\n"
        "assert general_solve(B, [1.0, 2.0]).status.value == 'converged'\n"
        "assert gmres_restarted(B, [1.0, 2.0], k=2).status.value == 'converged'\n"
        "assert gauss_seidel_solve(B, [1.0, 2.0]).status.value == 'converged'\n"
        "S = from_triplets(3, 3, [(0, 0, 2.0), (1, 1, 2.0), (2, 2, 2.0), (0, 1, -1.0), (1, 0, -1.0),\n"
        "    (1, 2, -1.0), (2, 1, -1.0)])\n"
        "assert minres_solve(S, [1.0, 0.0, 1.0], k=2).status.value == 'converged'\n"
        "assert dominance_class(S).classification.value == 'irreducibly_dominant'\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(nnasolve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_solve_rejects_negative_matrix():
    with pytest.raises(NegativeEntry):
        nna_solve(sparse_of([[1.0, -0.5], [0.25, 1.0]]), [1.0, 1.0])


def test_solve_auto_shift_recovers_signed_solution():
    rng = np.random.default_rng(7)
    m = 6
    dense = rng.uniform(0, 1, (m, m))
    np.fill_diagonal(dense, rng.uniform(6, 9, m))
    x_star = rng.uniform(-1.0, 1.0, m)
    b = dense @ x_star
    report = nna_solve(sparse_of(dense), b, cfg=SolverConfig(eps_tol=1e-9, max_iter=200_000))
    assert report.status is SolveStatus.CONVERGED
    assert np.abs(report.x - x_star).max() <= 1e-8


def test_solve_auto_shift_retries_count_every_attempt():
    # x* = (3, -3) needs a shift above 3: at t = 0.317, 0.634, 1.267 and 2.535
    # the shifted system has no solution, and the certificate stops each
    # attempt (172, 428, 1253 and 9753 iterations) before t = 5.069 converges
    # in 9201; matvec_count sums the products of all five attempts (the first
    # two take the paper's g once each, for a component that falls by more
    # than half, and none confirms a residual, which is exact)
    A = sparse_of([[1.0, 0.9], [0.9, 1.0]])
    b = spmv(A, np.array([3.0, -3.0]))
    report = nna_solve(A, b)
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 9201
    recomputed = float(np.linalg.norm(A.to_dense() @ report.x - b))
    assert recomputed <= default_tolerance(b)
    assert report.matvec_count == 41_625
    # the report names the kept attempt's shift and counts every attempt
    assert report.t_shift == pytest.approx(5.069, rel=1e-3)
    assert report.attempts == 5


def test_auto_shift_clears_a_negative_start():
    # b > 0 needs no shift, but x0 + 0*1 would not be positive
    A = sparse_of([[3.0, 1.0], [1.0, 2.0]])
    b = spmv(A, np.array([1.0, 2.0]))
    assert shift(A, b).t == 0.0
    report = nna_solve(A, b, x0=[-5.0, 1.0])
    assert report.status is SolveStatus.CONVERGED
    assert report.t_shift == 10.0 and report.attempts == 1
    assert np.abs(report.x - [1.0, 2.0]).max() <= 1e-6
    # a zero entry has no deficit, but would never move at t = 0
    report = nna_solve(A, b, x0=[0.0, 1.0])
    assert report.status is SolveStatus.CONVERGED and report.t_shift == 1.0
    with pytest.raises(NegativeInput, match="raise t above 5"):
        nna_solve(A, b, x0=[-5.0, 1.0], cfg=SolverConfig(t_shift=5.0))


def test_solve_converged_means_returned_x_meets_tolerance():
    # the loop tracks the residual of the shifted, rescaled iterate; at t=1000
    # the un-shift x = x_t - 1000 cancels about three digits, and on this
    # symmetric relabeling of the c06 instance (rows and columns permuted by
    # the first SplitMix64(108) permutation) the tracked residual crosses 1e-8
    # while the returned x still misses it by about 1e-4 relative
    inst = gen_dense_uniform(10, 0)
    q = np.argsort(SplitMix64(108).next_u64(10), kind="stable")
    rows, cols, vals = inst.A.triplets()
    A = from_arrays(10, 10, q[rows], q[cols], vals)
    b = np.empty(10)
    b[q] = inst.b
    report = nna_solve(A, b, cfg=SolverConfig(eps_tol=1e-8, t_shift=1000.0, max_iter=200_000))
    recomputed = float(np.linalg.norm(A.to_dense() @ report.x - b))
    assert report.status is SolveStatus.CONVERGED
    assert recomputed <= 1e-8, f"reported converged, recomputed residual {recomputed:.10e}"
    assert report.residual_trace[-1] == pytest.approx(recomputed, rel=1e-6)


def test_solve_default_tolerance_scales_with_b():
    assert default_tolerance(np.zeros(3)) == pytest.approx(1e-8)
    assert default_tolerance(np.array([3.0, 4.0])) == pytest.approx(6e-8)


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1.0, 1e160, 1e300])
def test_norm_holds_at_every_representable_scale(scale):
    # the plain sum of squares flushes to 0 below ~1.5e-154 and overflows above ~1.3e154
    assert _norm(np.array([3.0, 0.0, -4.0]) * scale) == pytest.approx(5.0 * scale, rel=1e-15, abs=0.0)
    assert _norm(np.zeros(3)) == 0.0 and _norm(np.empty(0)) == 0.0
    assert math.isnan(_norm(np.array([scale, np.nan])))


def test_solve_matches_independent_dense_reference():
    # end-to-end pipeline against a from-scratch dense transcription of the
    # shifted update in original coordinates
    rng = np.random.default_rng(12)
    for t in (2.0, 25.0):
        m = 7
        dense = rng.uniform(0, 1, (m, m))
        np.fill_diagonal(dense, rng.uniform(4, 6, m))
        b = dense @ rng.uniform(-0.5, 1.5, m)
        steps = 40

        bt = b + t * dense.sum(axis=1)
        colsum = dense.sum(axis=0)
        x_ref = np.ones(m) + t
        ref_trace = []
        for n in range(steps + 1):
            ref_trace.append(np.linalg.norm(dense @ x_ref - bt))
            if n < steps:
                x_ref = (x_ref / colsum) * (dense.T @ (bt / (dense @ x_ref)))

        report = nna_solve(
            sparse_of(dense), b, cfg=SolverConfig(eps_tol=1e-300, t_shift=t, max_iter=steps)
        )
        assert report.iterations == steps
        np.testing.assert_allclose(report.residual_trace, ref_trace, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(report.x, x_ref - t, rtol=1e-9, atol=1e-12)


def test_solve_rectangular_consistent_system():
    # wide system: solutions form a manifold; the residual still goes to zero
    rng = np.random.default_rng(13)
    dense = rng.uniform(0.1, 1.0, (2, 4))
    b = dense @ rng.uniform(0.5, 1.5, 4)
    report = nna_solve(sparse_of(dense), b, cfg=SolverConfig(eps_tol=1e-10, t_shift=0.0, max_iter=50_000))
    assert report.status is SolveStatus.CONVERGED
    assert np.linalg.norm(dense @ report.x - b) <= 1e-10


def test_solve_one_by_one():
    report = nna_solve(sparse_of([[4.0]]), [8.0], cfg=SolverConfig(eps_tol=1e-12))
    assert report.status is SolveStatus.CONVERGED
    assert report.x[0] == pytest.approx(2.0, abs=1e-12)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(eps_tol=0.0)
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            SolverConfig(t_shift=t)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=-1)


# ---------------------------------------------------------------------------
# divergence invariants along the iteration

def run_tilde_iteration(rng, m, steps):
    A, _, x_star, b = consistent_nonneg(rng, m)
    system = rescale(A, b)
    xt_star = tilde_of(x_star, A, b.sum())
    x = tilde_start(A)
    xs, bs = [x], []
    for _ in range(steps):
        bs.append(spmv(system.a_tilde, x))
        x = nna_step(system, x)
        xs.append(x)
    return system, xt_star, xs, bs


def test_kl_descent_inequality():
    rng = np.random.default_rng(8)
    for _ in range(10):
        m = int(rng.integers(3, 15))
        system, xt_star, xs, bs = run_tilde_iteration(rng, m, 120)
        for n in range(len(bs)):
            d_now = kl_divergence(xt_star, xs[n])
            d_next = kl_divergence(xt_star, xs[n + 1])
            d_b = kl_divergence(system.b_tilde, bs[n])
            assert d_next <= d_now - d_b + 1e-10


def test_divergence_to_b_nonincreasing():
    rng = np.random.default_rng(9)
    system, _, xs, bs = run_tilde_iteration(rng, 8, 200)
    kls = [kl_divergence(system.b_tilde, bn) for bn in bs]
    assert all(kls[n + 1] <= kls[n] + 1e-12 for n in range(len(kls) - 1))


def test_l2_certificate_pointwise():
    # 1e-12 slack absorbs divergence round-off once both sides hit float noise
    rng = np.random.default_rng(4)
    rng.uniform(0, 1, (8, 8))  # burn to decorrelate from the shift test
    m = 5
    dense = rng.uniform(0, 1, (m, m))
    np.fill_diagonal(dense, rng.uniform(3, 5, m))
    x_star = rng.uniform(0.5, 1.5, m)
    b = dense @ x_star
    A = sparse_of(dense)
    system = rescale(A, b)
    xt_star = tilde_of(x_star, A, b.sum())
    x = tilde_start(A)
    for _ in range(300):
        kl = kl_divergence(xt_star, x)
        bound = l2_bridge(x_star, kl)
        err_sq = float(np.sum((system.recover(x) - x_star) ** 2))
        assert err_sq <= bound + 1e-12
        x = nna_step(system, x)


@st.composite
def positive_systems(draw, max_m=8):
    """(A, b): nonnegative m1 x m2 A (m1, m2 <= 8) whose every row and column
    holds an entry >= 0.1, and b with entries in [0.1, 1].

    Then q >= 0.0125 and, as M is column-stochastic and x on the simplex,
    each update scales x_j by at least 0.0125, so 100 updates from the start
    cannot underflow (0.0125^100 ~ 1e-190).
    """
    m1, m2 = draw(st.integers(1, max_m)), draw(st.integers(1, max_m))
    unit = st.floats(0.0, 1.0, allow_subnormal=True)
    dense = np.array(draw(st.lists(unit, min_size=m1 * m2, max_size=m1 * m2))).reshape(m1, m2)
    k = np.arange(max(m1, m2))
    dense[k % m1, k % m2] += 0.1
    b = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=m1, max_size=m1)))
    return sparse_of(dense), b


@settings(max_examples=100, deadline=None)
@given(system=positive_systems(), steps=st.integers(1, 100))
def test_step_property_positive_on_simplex(system, steps):
    A, b = system
    rescaled = rescale(A, b)
    x = tilde_start(A)
    for _ in range(steps):
        x = nna_step(rescaled, x)
        assert np.all(x > 0.0)
        # the update maps any positive x onto the simplex, so rounding does
        # not accumulate from step to step
        assert abs(x.sum() - 1.0) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(system=positive_systems(), max_iter=st.integers(0, 100))
def test_solve_property_divergence_never_rises(system, max_iter):
    A, b = system
    report = nna_solve(A, b, cfg=SolverConfig(eps_tol=1e-300, t_shift=0.0, max_iter=max_iter))
    assert report.status is not SolveStatus.BREAKDOWN
    assert report.kl_trace.size == report.iterations + 1
    # every entry is a divergence between distributions, iterate 0's taken at
    # the start scaled onto the simplex, so none is negative; from iterate 1
    # on, every iterate is on the simplex and the divergence never rises
    assert np.all(report.kl_trace >= 0.0)
    kls = report.kl_trace[1:]
    assert np.all(kls[1:] <= kls[:-1] + 1e-12 * (1.0 + np.abs(kls[:-1])))


def test_accelerated_window_and_memory_are_fixed():
    assert (_AA_WINDOW, _GLL_MEMORY) == (20, 5)


def test_accelerated_rejection_keeps_the_history():
    # a rejected mixed point is replaced by the plain step, and the pairs
    # already stored stay: the k-th mixing solve (iteration k) weighs
    # min(k, _AA_WINDOW) of them, so the one after a rejection gets a Gram
    # matrix larger than 1 x 1 (with the history cleared it got 1 x 1)
    inst = gen_dense_uniform(10, 0)
    cfg = SolverConfig(eps_tol=1e-8, t_shift=10.0, max_iter=100_000)
    sizes = []
    mixing_weights = nnasolve.nna._mixing_weights

    def recorded(gram, rhs):
        sizes.append(gram.shape[0])
        return mixing_weights(gram, rhs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nnasolve.nna, "_mixing_weights", recorded)
        report = general_solve(inst.A, inst.b, cfg=cfg)
    assert report.status is SolveStatus.CONVERGED
    assert sizes == [min(k, _AA_WINDOW) for k in range(1, report.iterations)]
    # a run capped at n iterations counts the rejections of iterations 1 to
    # n - 1, so iteration n rejected where the count rises from cap n to
    # n + 1; sizes[n] is the Gram matrix of iteration n + 1
    caps = range(report.iterations + 1)
    counts = [general_solve(inst.A, inst.b, cfg=replace(cfg, max_iter=n)).rejections for n in caps]
    rejected = [n for n in range(1, report.iterations) if counts[n + 1] > counts[n]]
    assert len(rejected) == report.rejections == 8
    assert all(sizes[n] > 1 for n in rejected if n + 1 < report.iterations)


@settings(max_examples=100, deadline=None)
@given(system=positive_systems(), max_iter=st.integers(0, 100))
def test_accelerated_property_iterates_stay_on_the_simplex(system, max_iter):
    # every point x the accelerated loop multiplies by A after iterate 0
    # (each accepted iterate, and each mixed point its divergence test
    # weighs) has x + t > 0 and s^T (x + t) = B, the total of b + t A1, so
    # x_tilde = (x + t) s / B is positive and sums to 1; the safeguard's
    # reference, the largest divergence of the last _GLL_MEMORY iterates,
    # never rises: a mixed point enters only at or below it, a plain step
    # only at or below its iterate's divergence, up to the rounding the
    # plain loop's property above allows
    A, b = system
    systems, points = [], []
    rescale_, spmv_ = nnasolve.nna.rescale, nnasolve.nna.spmv

    def recorded_rescale(*args):
        systems.append(rescale_(*args))
        return systems[-1]

    def recorded_spmv(M, x):
        if systems and M is A:
            points.append(x)
        return spmv_(M, x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nnasolve.nna, "rescale", recorded_rescale)
        patch.setattr(nnasolve.nna, "spmv", recorded_spmv)
        report = general_solve(A, b, cfg=SolverConfig(eps_tol=1e-300, t_shift=0.0, max_iter=max_iter))
    assert report.status is not SolveStatus.BREAKDOWN
    # one point an iterate, and at most one more per rejection
    assert len(systems) == 1
    assert report.iterations + 1 <= len(points) <= report.iterations + 1 + report.rejections
    s, b_total, t = systems[0].col_scale, systems[0].b_total, report.t_shift
    for x in points[1:]:
        assert np.all(x + t > 0.0) and abs(s @ (x + t) - b_total) <= 1e-12 * b_total
    kls = report.kl_trace
    assert kls.size == report.iterations + 1
    reference = [kls[max(0, n - _GLL_MEMORY + 1) : n + 1].max() for n in range(kls.size)]
    assert all(later <= earlier + 1e-12 * (1.0 + earlier) for earlier, later in zip(reference, reference[1:]))


def _simplex_point(draw, m, lo):
    x = np.array(draw(st.lists(st.floats(lo, 1.0), min_size=m, max_size=m)))
    x[draw(st.integers(0, m - 1))] += 1.0  # never all zero
    return x / x.sum()


@settings(max_examples=200, deadline=None)
@given(system=positive_systems(), data=st.data())
def test_certificate_property_gap_bounds_every_point_of_the_simplex(system, data):
    # with g = M^T (q / M x), g . x = 1 on the simplex, so by convexity
    # D(q, M y) >= D(q, M x) + 1 - max_j g_j for every y there: the gap
    # max_j g_j - 1 that stops nna_solve bounds D(x) - D* from above
    A, b = system
    rescaled = rescale(A, b)
    M, q = rescaled.a_tilde, rescaled.b_tilde
    x = _simplex_point(data.draw, A.ncols, 1e-3)
    y = _simplex_point(data.draw, A.ncols, 0.0)  # may sit on the boundary
    Mx = spmv(M, x)
    gap = float(spmv_transpose(M, q / Mx).max()) - 1.0
    assert gap >= -1e-12
    assert kl_divergence(q, spmv(M, y)) >= kl_divergence(q, Mx) - gap - 1e-12


@settings(max_examples=100, deadline=None)
@given(system=positive_systems(), data=st.data())
def test_certificate_property_never_fires_on_a_consistent_system(system, data):
    # b = A x* with x* > 0 has the minimal divergence 0, which the
    # certificate's D* > 0 excludes
    A, _ = system
    x_star = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=A.ncols, max_size=A.ncols)))
    b = spmv(A, x_star)
    report = nna_solve(A, b, cfg=SolverConfig(eps_tol=1e-300, t_shift=0.0, max_iter=1000))
    assert report.status in (SolveStatus.CONVERGED, SolveStatus.MAX_ITERATIONS)


# ---------------------------------------------------------------------------
# rate certificate

def test_rate_certificate_identity():
    cert = rate_certificate(identity(2), [1.0, 1.0])
    assert cert.a_inv_norm1 == pytest.approx(1.0, rel=1e-12)
    assert cert.min_xstar == pytest.approx(0.5, rel=1e-12)
    assert cert.delta == pytest.approx(0.5 / 3.0, rel=1e-12)


def test_rate_certificate_bounds_eventual_contraction():
    A = sparse_of([[0.75, 0.25], [0.25, 0.75]])
    x_star = np.array([0.4, 0.6])
    b = A.to_dense() @ x_star
    cert = rate_certificate(A, x_star)
    system = rescale(A, b)
    xt_star = tilde_of(x_star, A, b.sum())
    x = np.array([0.9, 0.1])
    ds = [kl_divergence(xt_star, x)]
    for _ in range(400):
        x = nna_step(system, x)
        d = kl_divergence(xt_star, x)
        ds.append(d)
        if d < 1e-12:  # below this the computed divergence is round-off noise
            break
    ratios = [ds[n + 1] / ds[n] for n in range(len(ds) - 1) if ds[n + 1] > 1e-12]
    tail = ratios[len(ratios) // 2 :]
    assert tail
    assert all(r <= 1.0 - cert.delta + 1e-12 for r in tail)


def test_rate_certificate_degenerates_near_singular():
    eps = 1e-8
    A = sparse_of([[0.5, 0.5 - eps], [0.5, 0.5 + eps]])
    cert = rate_certificate(A, [1.0, 1.0])
    assert 0.0 < cert.delta < 1e-6


def test_rate_certificate_errors():
    with pytest.raises(SingularMatrix):
        rate_certificate(sparse_of([[1.0, 1.0], [1.0, 1.0]]), [1.0, 1.0])
    with pytest.raises(TooLargeForDense):
        rate_certificate(identity(201), np.ones(201))


def _counting_kernels(monkeypatch):
    # every product the solve loop makes must go through these module-level
    # names, the ones a tracer patches to see the loop's kernel calls
    calls = []
    for name in ("spmv", "spmv_transpose"):
        kernel = getattr(nnasolve.nna, name)

        def counted(*args, kernel=kernel):
            calls.append(kernel.__name__)
            return kernel(*args)

        monkeypatch.setattr(nnasolve.nna, name, counted)
    return calls


def test_a_breakdown_after_auto_shift_retries_counts_their_products(monkeypatch):
    # x* = (3e307, -3e307): four doubled shifts stagnate, and the fifth makes
    # b + t A1 sum to infinity; the report counts the four attempts' products
    # and the five shifts tried, where it read 0 and 0
    calls = _counting_kernels(monkeypatch)
    A = sparse_of([[1.0, 0.9], [0.9, 1.0]])
    b = np.array([[1.0, 0.9], [0.9, 1.0]]) @ np.array([3e307, -3e307])
    report = nna_solve(A, b)
    assert report.status is SolveStatus.BREAKDOWN
    assert report.diagnostic == "NonFiniteValue: b sums to infinity; its rescaled entries would vanish"
    assert len(calls) == report.matvec_count == 22_914
    assert report.attempts == 5


def test_loop_products_go_through_traced_kernel_names(monkeypatch):
    calls = _counting_kernels(monkeypatch)
    inst = gen_dense_uniform(10, 0)
    report = nna_solve(inst.A, inst.b, cfg=SolverConfig(t_shift=10.0, max_iter=3000))
    assert report.status is SolveStatus.MAX_ITERATIONS
    # every kernel call is a counted product: A x_0, then two an iteration,
    # and no confirmation
    assert len(calls) == report.matvec_count == 6001


def test_embedded_loop_products_go_through_traced_kernel_names(monkeypatch):
    calls = _counting_kernels(monkeypatch)
    rng = np.random.default_rng(5)
    dense = rng.uniform(-1.0, 1.0, (6, 6))
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    b = dense @ rng.uniform(0.5, 1.5, 6)
    report = general_solve(sparse_of(dense), b, cfg=SolverConfig(eps_tol=1e-9, max_iter=50_000))
    assert report.status is SolveStatus.CONVERGED
    n = report.iterations
    # general_solve runs the accelerated loop: P y_0, two products with P an
    # iteration, and one more per mixed point the safeguard rejects; the
    # traced residuals are exact, so none is confirmed
    assert n == 18 and report.rejections == 0
    assert report.matvec_count == 2 * n + 1 + report.rejections
    # the counted products with P, and one uncounted tie-block product per
    # tracked residual (n + 1)
    assert calls.count("spmv_transpose") == n
    assert len(calls) == report.matvec_count + (n + 1) == 56


@pytest.mark.parametrize(
    "case, expected",
    [(_inconsistent_case, SolveStatus.STAGNATED_MIN_KL), (_dense_shifted_case, SolveStatus.CONVERGED)],
    ids=["stagnated", "converged"],
)
def test_no_product_past_the_stop(monkeypatch, case, expected):
    # the loop computes no product beyond the iterate where the run stops:
    # every kernel call is a counted product
    calls = _counting_kernels(monkeypatch)
    A, b, cfg = case()
    report = nna_solve(A, b, cfg=cfg)
    assert report.status is expected
    assert len(calls) == report.matvec_count


def test_a_breakdown_makes_no_product_past_the_bad_iterate(monkeypatch):
    # M x0 overflows at iterate 0 (test_solve_nonfinite_mid_iteration_is_breakdown's
    # system), and the run raises its typed breakdown there: that one product
    # is the only kernel call
    calls = _counting_kernels(monkeypatch)
    A = from_triplets(2, 2, [(0, 0, 2.0), (1, 1, 2.0), (0, 1, 1.0)])
    report = nna_solve(A, [1.0, 1.0], x0=np.full(2, 1e308))
    assert report.status is SolveStatus.BREAKDOWN
    assert len(calls) == 1


def _recording_gates(monkeypatch):
    gates = []

    class Recorded(nnasolve.nna._ResidualGate):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            gates.append(self)

    monkeypatch.setattr(nnasolve.nna, "_ResidualGate", Recorded)
    return gates


def test_a_failed_confirmation_on_the_last_row_is_made_once(monkeypatch):
    # at max_iter = 264 the tracked residual of the shifted form first
    # reached its gate on the row where the run stops, with b - A x above eps
    # there, and the loop once recomputed that x twice.  The loop's residual
    # is now exact: nothing is confirmed, and the last entry is b - A x
    calls = _counting_kernels(monkeypatch)
    gates = _recording_gates(monkeypatch)
    A, b, cfg = _dense_shifted_case()
    report = nna_solve(A, b, cfg=replace(cfg, max_iter=264))
    assert report.status is SolveStatus.MAX_ITERATIONS
    # 265 products A x and 264 updates
    assert report.matvec_count == 529
    assert len(calls) == report.matvec_count
    assert len(gates) == 1 and gates[0].recomputes == 0
    assert report.residual_trace[-1] == _norm(b - spmv(A, report.x)) > cfg.eps_tol


_UNSHIFTABLE = {
    # the first row sum overflows, so the base shift is 0 and doubling never grows it
    "row-sum-overflows": from_triplets(2, 2, [(0, 0, 1e308), (0, 1, 1e308), (1, 1, 1.0)]),
    # ||b||_1 / min column sum overflows, so t doubles past the largest float
    "scale-overflows": from_triplets(2, 2, [(0, 0, 1e-320), (0, 1, 1.0)]),
}


@pytest.mark.parametrize("A", _UNSHIFTABLE.values(), ids=_UNSHIFTABLE.keys())
def test_an_auto_shift_that_cannot_stay_finite_is_breakdown(A):
    # both used to loop in shift forever; the shift names the defect, and the
    # solvers report it as a setup breakdown
    with pytest.raises(NonFiniteValue, match="automatic shift"):
        shift(A, [-1.0, 1.0])
    for solve in (nna_solve, general_solve):
        report = solve(A, [-1.0, 1.0])
        assert report.status is SolveStatus.BREAKDOWN
        assert report.diagnostic.startswith("NonFiniteValue: the automatic shift")


def test_a_positive_b_needs_no_shift_even_when_row_sums_overflow():
    assert shift(_UNSHIFTABLE["row-sum-overflows"], [1.0, 2.0]).t == 0.0


def test_a_run_that_ends_on_a_recomputed_residual_within_eps_converges(monkeypatch):
    # the start solves the system exactly; the shifted form tracked its
    # residual as 1.3e-14, above eps, and once ended as max_iterations on a
    # confirmed residual of 0.  The loop's residual is b - A x itself
    gates = _recording_gates(monkeypatch)
    A = sparse_of([[4.0, 1.0], [7.0, 5.0]])
    b = np.array([37.0, 81.0])
    report = nna_solve(A, b, x0=[8.0, 5.0], cfg=SolverConfig(eps_tol=1e-15, max_iter=0))
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 0 and report.residual_trace.tolist() == [0.0]
    assert report.residual_trace[-1] == _norm(b - spmv(A, report.x))
    # one product A x and no confirmation
    assert report.matvec_count == 1
    assert gates[0].recomputes == 0


@pytest.mark.parametrize(
    "start, expected, products",
    [
        # ||A x0 - b|| = 1e200 * sqrt(m) is finite, its norm scaled where the
        # plain sum of squares overflows: the run goes on and converges at
        # iterate 1.  Each x_j falls by 1e200, where g1 rounds to -1, so
        # the step takes the paper's g: A x0, A^T twice and A x1
        (1e200, SolveStatus.CONVERGED, 4),
        # ||b - A x0|| overflows, so the start is a breakdown (the loop once
        # went on and converged at iterate 1); A x0 is the one product
        (1e308, SolveStatus.BREAKDOWN, 1),
    ],
)
def test_a_non_finite_tracked_residual_is_confirmed(monkeypatch, start, expected, products):
    # at m = 3, 1e308 * sqrt(m) would be finite, and the breakdown case
    # would converge at iterate 1
    m = 4
    calls = _counting_kernels(monkeypatch)
    gates = _recording_gates(monkeypatch)
    report = nna_solve(identity(m), np.ones(m), x0=np.full(m, start), cfg=SolverConfig(eps_tol=1e-8, max_iter=5))
    assert report.status is expected
    assert report.matvec_count == products and len(calls) == products
    assert gates[0].recomputes == 0
    assert report.residual_trace[-1] == _norm(np.ones(m) - report.x)
    # ||x0 - 1||, scaled against overflow as the solvers' norm is
    true = math.hypot(*np.full(m, start - 1.0))
    assert report.residual_trace[0] == pytest.approx(true, rel=1e-12)
    assert report.iterations == (1 if math.isfinite(true) else 0)
