"""Acceptance suite: one test per criterion, each pinned to a fixed tolerance.

Each test prints one `ACCEPTANCE <n> ...: PASS` line (visible with -s or in
captured output) and asserts its runtime budget.  The paper promises a
geometric convergence rate, not an iteration count, so criteria 6 and 7 take
each run's iteration budget from that rate on the instance at hand:
N(rho) = ceil(ln(r_1 / eps) / -ln rho), with rho the spectral radius of the
EM map's Jacobian at the known solution (conftest.em_rate_budget).  Criterion
7 also reports the matrix-vector products of NNA and GMRES(20) per seed but
asserts no ordering between them: neither the paper's abstract nor the README
puts a number on "competitive".
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from nnasolve import (
    SolveStatus,
    SolverConfig,
    default_tolerance,
    gen_dense_uniform,
    gen_sparse_random,
    general_solve,
    cg_solve,
    embed,
    gauss_seidel_solve,
    gmres_restarted,
    jacobi_solve,
    kl_divergence,
    minres_solve,
    nna_solve,
    nna_step,
    nna_step_counted,
    normal_equation_solve,
    rate_certificate,
    read_matrix_market,
    rescale,
    shift,
    spmv,
)
from conftest import dominant_mixed, em_rate_budget, minimal_kl_oracle, sparse_of, spd_dominant

KL_NOISE_FLOOR = 1e-12  # below this, computed divergences are round-off
RATE_TAIL = 1_000  # c06: iterations over which the final contraction rate is measured
NNA_HANG_CAP = 1_000_000  # c07: finite stand-in for rate budgets too large to run


def tilde_start(A):
    x = np.ones(A.ncols) * A.col_sums
    return x / x.sum()


def consistent_instance(rng, m):
    dense = rng.uniform(0.0, 1.0, (m, m))
    x_star = rng.uniform(0.5, 1.5, m)
    return sparse_of(dense), x_star, dense @ x_star


def test_c01_kl_descent_inequality():
    started = time.time()
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(200):
        m = int(rng.integers(3, 21))
        A, x_star, b = consistent_instance(rng, m)
        system = rescale(A, b)
        xt_star = x_star * A.col_sums / b.sum()
        x = tilde_start(A)
        for _ in range(100):
            b_n = spmv(system.a_tilde, x)
            d_b = kl_divergence(system.b_tilde, b_n)
            d_now = kl_divergence(xt_star, x)
            x_next = nna_step(system, x)
            d_next = kl_divergence(xt_star, x_next)
            assert d_next <= d_now - d_b + 1e-10
            checked += 1
            x = x_next
            if d_b <= 1e-16:
                break
    elapsed = time.time() - started
    assert elapsed < 10.0
    print(f"ACCEPTANCE 01 kl-descent: PASS ({checked} steps on 200 instances, {elapsed:.1f}s)")


def test_c02_geometric_rate_certificate():
    # the onset N is non-constructive, so it is searched for: over a finite
    # window, the last ratio above 1 - delta + 1e-12 marks the onset, which
    # must lie within 1e4 iterations and be followed by a substantial
    # all-contracting suffix (late violations would leave the suffix empty)
    started = time.time()
    rng = np.random.default_rng(102)
    onsets = []
    window = 4_000
    for _ in range(50):
        m = int(rng.integers(3, 16))
        A, x_star, b = consistent_instance(rng, m)
        cert = rate_certificate(A, x_star)
        system = rescale(A, b)
        xt_star = x_star * A.col_sums / b.sum()
        x = tilde_start(A)
        ds = [kl_divergence(xt_star, x)]
        for _ in range(window):
            x = nna_step(system, x)
            d = kl_divergence(xt_star, x)
            ds.append(d)
            if d <= KL_NOISE_FLOOR:
                break
        ds = np.asarray(ds)
        usable = np.flatnonzero(ds[1:] > KL_NOISE_FLOOR)
        ratios = ds[1:][usable] / ds[:-1][usable]
        threshold = 1.0 - cert.delta + 1e-12
        bad = np.flatnonzero(ratios > threshold)
        onset = 0 if bad.size == 0 else int(usable[bad[-1]]) + 1
        suffix = int(np.count_nonzero(usable >= onset))
        assert onset <= 10_000, f"no contraction onset within 1e4 iterations (delta={cert.delta:.3e})"
        assert suffix >= 25, f"only {suffix} contracting steps observed past onset {onset}"
        onsets.append(onset)
    elapsed = time.time() - started
    assert elapsed < 30.0
    print(f"ACCEPTANCE 02 geometric-rate: PASS (max onset {max(onsets)}, {elapsed:.1f}s)")


def test_c03_iteration_bound():
    started = time.time()
    rng = np.random.default_rng(103)
    for _ in range(50):
        m = int(rng.integers(3, 16))
        A, x_star, b = consistent_instance(rng, m)
        system = rescale(A, b)
        xt_star = x_star * A.col_sums / b.sum()
        x1 = nna_step(system, tilde_start(A))
        d_x1 = kl_divergence(xt_star, x1)
        for eps in (1e-2, 1e-4):
            bound = int(np.floor(d_x1 / eps)) + 1
            x = x1.copy()
            hit = None
            for n in range(1, bound + 2):
                if kl_divergence(system.b_tilde, spmv(system.a_tilde, x)) <= eps:
                    hit = n
                    break
                x = nna_step(system, x)
            assert hit is not None and hit <= bound, f"bound {bound} exceeded for eps={eps}"
    elapsed = time.time() - started
    assert elapsed < 30.0
    print(f"ACCEPTANCE 03 iteration-bound: PASS ({elapsed:.1f}s)")


def test_c04_minimal_kl_limit():
    started = time.time()
    rng = np.random.default_rng(104)
    gaps = []
    for _ in range(20):
        dense = rng.uniform(0.2, 1.0, (3, 2))
        b = rng.uniform(0.5, 1.5, 3)
        A = sparse_of(dense)
        report = nna_solve(A, b, cfg=SolverConfig(eps_tol=1e-12, t_shift=0.0, max_iter=200_000))
        assert report.status is SolveStatus.STAGNATED_MIN_KL
        gap = abs(float(report.kl_trace[-1]) - minimal_kl_oracle(dense, b))
        assert gap <= 1e-4, f"final divergence off oracle by {gap:.2e}"
        gaps.append(gap)
    elapsed = time.time() - started
    assert elapsed < 60.0
    print(f"ACCEPTANCE 04 minimal-kl: PASS (max oracle gap {max(gaps):.2e}, {elapsed:.1f}s)")


def test_c05_embedding_correctness():
    started = time.time()
    rng = np.random.default_rng(105)
    # exact entry accounting on 500 random sign-mixed sparse matrices
    for _ in range(500):
        m1, m2 = rng.integers(1, 25, size=2)
        density = rng.uniform(0.05, 0.6)
        dense = rng.uniform(-1, 1, (m1, m2)) * (rng.uniform(0, 1, (m1, m2)) < density)
        A = sparse_of(dense)
        emb = embed(A, rng.uniform(-1, 1, m1))
        J = int(np.count_nonzero((dense < 0).any(axis=0)))
        assert emb.P.nnz == A.nnz + 2 * J
        assert emb.J == J
    # end-to-end: 100 random invertible mixed-sign 10x10 systems against LU;
    # strict row dominance guarantees invertibility and keeps the inner
    # iteration in its fast regime so the 60 s budget holds
    worst = 0.0
    for _ in range(100):
        dense = dominant_mixed(rng, 10)
        x_star = rng.uniform(0.5, 1.5, 10)
        b = dense @ x_star
        cfg = SolverConfig(eps_tol=1e-9 * (1 + float(np.linalg.norm(b))), max_iter=100_000)
        report = general_solve(sparse_of(dense), b, cfg=cfg)
        assert report.status is SolveStatus.CONVERGED
        err = float(np.abs(report.x - np.linalg.solve(dense, b)).max())
        assert err <= 1e-6
        worst = max(worst, err)
    elapsed = time.time() - started
    assert elapsed < 60.0
    print(f"ACCEPTANCE 05 embedding: PASS (worst solve error {worst:.2e}, {elapsed:.1f}s)")


def test_c06_figure1_shift_robustness():
    """Figure 1: at t = 10, 100 and 1000 every run reaches 1e-8 and the shifts agree.

    The paper promises a geometric rate, not an iteration count, so each run's
    budget is the one that rate gives for this instance and shift
    (em_rate_budget): about 1e5 iterations at rho ~ 0.9998.  The tail of each
    residual trace must contract at that rho.  Work is bounded by the budgets,
    so the elapsed-time check is only a hang guard: the ~2.8e5 iterations
    took 4.0-5.6 s over three runs on a shared 2-vCPU Xeon VM whose speed
    swings by 2x.
    """
    started = time.time()
    inst = gen_dense_uniform(10, 0)
    dense = inst.A.to_dense()
    x_star = np.linalg.solve(dense, inst.b)
    results, summary = {}, {}
    for t in (10.0, 100.0, 1000.0):
        rho, budget = em_rate_budget(inst.A, inst.b, x_star, t, 1e-8)
        report = nna_solve(inst.A, inst.b, cfg=SolverConfig(eps_tol=1e-8, t_shift=t, max_iter=budget))
        tail = min(RATE_TAIL, report.iterations)
        results[t] = report
        summary[t] = {
            "status": report.status.value,
            "iters": report.iterations,
            "budget": budget,
            "residual": float(np.linalg.norm(dense @ report.x - inst.b)),
            "rho": rho,
            "tail_rate": float(report.residual_trace[-1] / report.residual_trace[-1 - tail]) ** (1.0 / tail),
        }
    for t, row in summary.items():
        assert row["status"] == "converged", f"t={t} did not reach 1e-8 within its rate budget: {summary}"
        assert row["residual"] <= 1e-8, f"t={t}: recomputed residual above 1e-8: {summary}"
        assert row["iters"] <= row["budget"], f"t={t}: iterations exceed the rate budget: {summary}"
        assert abs(row["tail_rate"] - row["rho"]) <= 1e-6, f"t={t}: tail rate is not rho: {summary}"
    xs = [r.x for r in results.values()]
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            assert float(np.linalg.norm(xs[i] - xs[j])) <= 1e-6
    elapsed = time.time() - started
    assert elapsed < 300.0
    brief = {t: (row["iters"], row["budget"]) for t, row in summary.items()}
    print(f"ACCEPTANCE 06 figure-1: PASS (t: (iterations, budget) {brief}, {elapsed:.1f}s)")


def test_c07_figure2_sparse_comparison():
    """Figure 2: on seeds 0-9 NNA and GMRES(20) both reach 1e-6 * ||b||.

    Both are checked on the residual recomputed from A.  NNA must stop within
    min(N(rho), NNA_HANG_CAP) iterations, N(rho) being the geometric-rate
    budget (em_rate_budget).  The finite cap is needed because the budget
    follows the slowest mode: for seed 7 it is 6.5e8 iterations (hours),
    although the start leaves that mode unexcited and the run converges in
    about 3.5e4.  The cap of 1e6 is about ten times the slowest measured seed
    (seed 4, about 1.05e5).
    Matrix-vector products of both solvers are reported per seed; no
    ordering between them is asserted, since neither the paper's abstract
    nor the README puts a number on "competitive".
    """
    started = time.time()
    per_seed = []
    for seed in range(10):
        inst = gen_sparse_random(1000, 5000, 100.0, seed)
        dense = inst.A.to_dense()
        target = 1e-6 * float(np.linalg.norm(inst.b))
        _, budget = em_rate_budget(inst.A, inst.b, inst.x_star, 0.0, target)
        budget = min(budget, NNA_HANG_CAP)
        nna = nna_solve(inst.A, inst.b, cfg=SolverConfig(eps_tol=target, t_shift=0.0, max_iter=budget))
        gmres = gmres_restarted(inst.A, inst.b, k=20, cfg=SolverConfig(eps_tol=target, max_iter=2_000))
        per_seed.append(
            {
                "seed": seed,
                "nna_status": nna.status.value,
                "nna_iters": nna.iterations,
                "nna_budget": budget,
                "nna_matvecs": nna.matvec_count,
                "nna_over_target": float(np.linalg.norm(dense @ nna.x - inst.b)) / target,
                "gmres_status": gmres.status.value,
                "gmres_matvecs": gmres.matvec_count,
                "gmres_over_target": float(np.linalg.norm(dense @ gmres.x - inst.b)) / target,
            }
        )
    for row in per_seed:
        for solver in ("nna", "gmres"):
            assert row[f"{solver}_status"] == "converged", f"{solver} missed the target: {per_seed}"
            assert row[f"{solver}_over_target"] <= 1.0, f"{solver} recomputed residual above target: {per_seed}"
        assert row["nna_iters"] <= row["nna_budget"], f"NNA exceeded its budget: {per_seed}"
    elapsed = time.time() - started
    assert elapsed < 300.0
    matvecs = {row["seed"]: (row["nna_matvecs"], row["gmres_matvecs"]) for row in per_seed}
    print(f"ACCEPTANCE 07 figure-2: PASS (seed: (NNA, GMRES(20)) matvecs {matvecs}, {elapsed:.1f}s)")


def _gre1107_path():
    env = os.environ.get("NNASOLVE_GRE1107")
    if env and Path(env).exists():
        return Path(env)
    local = Path(__file__).resolve().parent.parent / "data" / "gre_1107.mtx"
    return local if local.exists() else None


def test_c08_gre1107_conditional():
    path = _gre1107_path()
    if path is None:
        pytest.skip("GRE-1107 matrix file not present (set NNASOLVE_GRE1107 or add data/gre_1107.mtx)")
    started = time.time()
    A = read_matrix_market(path)
    assert A.shape == (1107, 1107)
    assert A.nnz == 5664
    b = spmv(A, np.ones(A.ncols))
    target = 1e-6 * float(np.linalg.norm(b))
    # the default all-ones start would coincide with the synthesized solution,
    # so start from zero to make the run non-trivial
    report = general_solve(A, b, x0=np.zeros(A.ncols), cfg=SolverConfig(eps_tol=target, max_iter=100_000))
    assert report.status is SolveStatus.CONVERGED
    print(f"ACCEPTANCE 08 gre-1107: PASS ({report.iterations} iterations, {time.time()-started:.1f}s)")


def test_c09_flop_budget_and_scaling():
    started = time.time()
    rng = np.random.default_rng(109)
    # instrumented counting build: every multiply/add/divide tallied
    for _ in range(20):
        m = int(rng.integers(5, 60))
        nnz_off = int(rng.integers(0, m * (m - 1) // 2))
        inst = gen_sparse_random(m, nnz_off, 10.0, int(rng.integers(0, 2**31)))
        system = rescale(inst.A, shift(inst.A, inst.b, 0.0).b_shifted)
        x = tilde_start(inst.A)
        fast = nna_step(system, x)
        slow, flops = nna_step_counted(system, x)
        np.testing.assert_allclose(fast, slow, rtol=1e-12)
        assert flops <= 4 * (inst.A.nnz + m)
    # wall-time per iteration scales linearly in the entry count
    per_entry = {}
    for m, reps in ((1_000, 300), (10_000, 60), (100_000, 10)):
        inst = gen_sparse_random(m, 5 * m, 100.0, 1)
        system = rescale(inst.A, shift(inst.A, inst.b, 0.0).b_shifted)
        x0 = tilde_start(inst.A)
        best = float("inf")
        for _ in range(3):
            x = x0.copy()
            t0 = time.perf_counter()
            for _ in range(reps):
                x = nna_step(system, x)
            best = min(best, (time.perf_counter() - t0) / reps)
        per_entry[m] = best / (inst.A.nnz + m)
    ratio = max(per_entry.values()) / min(per_entry.values())
    assert ratio <= 3.0, f"per-entry step cost not linear: {per_entry}"
    elapsed = time.time() - started
    print(f"ACCEPTANCE 09 flop-budget: PASS (scaling spread {ratio:.2f}x, {elapsed:.1f}s)")


def test_c10_baseline_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(110)
    worst = {}

    def check(name, make_dense, solver, n=50):
        top = 0.0
        for _ in range(n):
            m = int(rng.integers(5, 31))
            dense = make_dense(m)
            b = rng.uniform(-1, 1, m)
            report = solver(sparse_of(dense), b, m)
            assert report.status is SolveStatus.CONVERGED, f"{name} failed to converge"
            err = float(np.abs(report.x - np.linalg.solve(dense, b)).max())
            assert err <= 1e-6, f"{name} off oracle by {err:.2e}"
            top = max(top, err)
        worst[name] = top

    cfg = SolverConfig(eps_tol=1e-9, max_iter=20_000)

    def symmetric_indefinite(m):
        Q = np.linalg.qr(rng.normal(size=(m, m)))[0]
        eigs = rng.uniform(1.0, 2.0, m) * rng.choice([-1.0, 1.0], m)
        return (Q * eigs) @ Q.T

    def pd_nonsymmetric(m):
        skew = rng.uniform(-0.2, 0.2, (m, m))
        return spd_dominant(rng, m) + (skew - skew.T)

    check("jacobi", lambda m: dominant_mixed(rng, m), lambda A, b, m: jacobi_solve(A, b, cfg=cfg))
    check("gauss-seidel", lambda m: dominant_mixed(rng, m), lambda A, b, m: gauss_seidel_solve(A, b, cfg=cfg))
    check("cg", lambda m: spd_dominant(rng, m), lambda A, b, m: cg_solve(A, b, cfg=cfg))
    check("gmres", pd_nonsymmetric, lambda A, b, m: gmres_restarted(A, b, k=5, cfg=cfg))
    check("minres", symmetric_indefinite, lambda A, b, m: minres_solve(A, b, k=min(10, m), cfg=cfg))
    check(
        "normal-cg",
        lambda m: rng.uniform(-1, 1, (m, m)) + 2.5 * np.eye(m),
        lambda A, b, m: normal_equation_solve(A, b, cfg=cfg),
    )
    elapsed = time.time() - started
    assert elapsed < 60.0
    summary = {k: f"{v:.1e}" for k, v in worst.items()}
    print(f"ACCEPTANCE 10 baseline-oracles: PASS ({summary}, {elapsed:.1f}s)")


def test_c11_solver_agreement():
    started = time.time()
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(20):
        m = 12
        dense = spd_dominant(rng, m)
        x_star = rng.uniform(0.5, 1.5, m)
        b = dense @ x_star
        A = sparse_of(dense)
        cfg = SolverConfig(eps_tol=1e-9 * (1 + float(np.linalg.norm(b))), max_iter=100_000)
        solutions = [
            general_solve(A, b, cfg=cfg).x,
            jacobi_solve(A, b, cfg=cfg).x,
            gauss_seidel_solve(A, b, cfg=cfg).x,
            cg_solve(A, b, cfg=cfg).x,
            gmres_restarted(A, b, k=6, cfg=cfg).x,
            minres_solve(A, b, k=6, cfg=cfg).x,
            normal_equation_solve(A, b, cfg=cfg).x,
        ]
        for i in range(len(solutions)):
            for j in range(i + 1, len(solutions)):
                diff = float(np.abs(solutions[i] - solutions[j]).max())
                assert diff <= 1e-5
                worst = max(worst, diff)
    elapsed = time.time() - started
    print(f"ACCEPTANCE 11 solver-agreement: PASS (worst pairwise {worst:.2e}, {elapsed:.1f}s)")
