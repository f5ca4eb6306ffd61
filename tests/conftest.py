"""Shared test helpers: dense <-> sparse bridges, instance generators and the
geometric-rate iteration budget of the multiplicative update."""

import math

import numpy as np

from nnasolve import from_arrays, nna_step, rescale, shift, spmv


def sparse_of(dense):
    """SparseMatrix from a dense array, dropping zeros."""
    dense = np.asarray(dense, dtype=np.float64)
    rows, cols = np.nonzero(dense)
    return from_arrays(dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols])


def identity(m):
    return sparse_of(np.eye(m))


def consistent_nonneg(rng, m, lo=0.0, hi=1.0):
    """Nonnegative dense system with known positive solution: returns (A, dense, x*, b)."""
    dense = rng.uniform(lo, hi, (m, m))
    x_star = rng.uniform(0.5, 1.5, m)
    b = dense @ x_star
    return sparse_of(dense), dense, x_star, b


def dominant_mixed(rng, m):
    """Strictly row-dominant matrix with mixed-sign off-diagonal entries."""
    dense = rng.uniform(-1.0, 1.0, (m, m))
    np.fill_diagonal(dense, 0.0)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + rng.uniform(0.5, 1.5, m))
    return dense


def spd_dominant(rng, m):
    """Symmetric strictly dominant matrix with positive diagonal (hence SPD)."""
    off = rng.uniform(-1.0, 1.0, (m, m))
    off = (off + off.T) / 2.0
    np.fill_diagonal(off, 0.0)
    dense = off.copy()
    np.fill_diagonal(dense, np.abs(off).sum(axis=1) + rng.uniform(0.5, 1.5, m))
    return dense


def minimal_kl_oracle(dense, b):
    """min D(b_tilde, a_tilde x) over the simplex of a 3 x 2 system, on a grid of
    resolution 1e-4 (c04's oracle)."""
    b_tilde = b / b.sum()
    a_tilde = dense / dense.sum(axis=0, keepdims=True)
    s = np.linspace(0.0, 1.0, 10_001)
    candidates = a_tilde @ np.stack([s, 1.0 - s])
    with np.errstate(divide="ignore"):
        logs = np.log(b_tilde[:, None]) - np.log(candidates)
    return float(np.sum(b_tilde[:, None] * logs, axis=0).min())


def em_rate_budget(A, b, x_star, t, eps):
    """Iteration budget the geometric-rate guarantee gives for one instance.

    In rescaled coordinates the update is the EM map x <- x * M^T (q / M x)
    (Vardi & Lee 1993).  Its Jacobian at the fixed point x_tilde* is
    I - D M^T diag(1/q) M with D = diag(x_tilde*), similar to I - S for the
    symmetric S = D^(1/2) M^T diag(1/q) M D^(1/2), whose eigenvalues lie in
    [0, 1].  The eigenvalue 1 belongs to the mass direction the simplex
    removes, so the asymptotic contraction factor (Dempster, Laird & Rubin
    1977) is rho = 1 - lambda_min(S).  Returns (rho, N) with
    N = ceil(ln(r_1 / eps) / -ln rho), where r_1 = ||A x_1 - b||_2 after the
    first update from the default start x0 = 1 at shift t.
    """
    system = rescale(A, shift(A, b, t).b_shifted)
    M = system.a_tilde.to_dense()
    q = system.b_tilde
    xt_star = (np.asarray(x_star, dtype=np.float64) + t) * system.col_scale / system.b_total
    B = M * np.sqrt(xt_star)[np.newaxis, :] / np.sqrt(q)[:, np.newaxis]
    lam_min = max(float(np.linalg.eigvalsh(B.T @ B)[0]), 0.0)
    x1 = nna_step(system, (np.ones(A.ncols) + t) * system.col_scale / system.b_total)
    r1 = float(np.linalg.norm(spmv(A, system.recover(x1) - t) - b))
    steps = math.log(r1 / eps) / -math.log1p(-lam_min)  # lam_min = 0: no geometric rate, raises
    return 1.0 - lam_min, max(1, math.ceil(steps))
