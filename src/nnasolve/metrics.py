"""Divergences between nonnegative vectors: KL and its bridge to an l2 error bound."""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, InfiniteDivergence, NegativeInput, NonFiniteValue

__all__ = ["kl_divergence", "l2_bridge"]


def _pair(u, v):
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise DimensionMismatch(f"incompatible shapes {u.shape} and {v.shape}")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise NonFiniteValue("divergence inputs must be finite")
    return u, v


def kl_divergence(u, v) -> float:
    """Kullback-Leibler divergence sum_i u_i log(u_i / v_i).

    Terms with u_i = 0 contribute 0; the result is math.inf when u_i > 0
    meets v_i = 0.  Inputs must be nonnegative.
    """
    u, v = _pair(u, v)
    if np.any(u < 0) or np.any(v < 0):
        raise NegativeInput("kl_divergence requires nonnegative inputs")
    mask = u > 0
    if not np.any(mask):
        return 0.0
    um = u[mask]
    vm = v[mask]
    if np.any(vm == 0.0):
        return math.inf
    return float(np.sum(um * np.log(um / vm)))


def l2_bridge(x_star, kl: float) -> float:
    """Upper bound 2 * ||x*||_1^2 * kl converting a KL trace into a squared l2 error bound."""
    if math.isinf(kl):
        raise InfiniteDivergence("l2_bridge requires a finite divergence")
    x = np.asarray(x_star, dtype=np.float64)
    if np.any(x < 0):
        raise NegativeInput("l2_bridge requires a nonnegative reference vector")
    l1 = float(np.sum(x))
    return 2.0 * l1 * l1 * kl
