"""Envelope triples and the closed-form tail kernels behind every bound.

A process is summarized at each theta by a (sigma, rho) envelope,
``SigmaRho``. A bound turns the arrival and the impairment envelope into
two exponential tails a e^{-theta x}, each with the virtual-backlog
prefactor of ``_vb_prefactor``, and combines them by one of two rules: a
min-plus convolution in general (``_minplus_vec``) and the independent-sum
convolution when the two processes are independent (``_indep_vec``). Each
kernel takes scalars or whole parameter grids; the bound optimizer and
``bounds.point_tail_value`` both call it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SigmaRho"]


@dataclass(frozen=True)
class SigmaRho:
    """An MGF envelope triple (theta, sigma, rho).

    Encodes (1/theta) * log E exp(theta * X(s, s+t)) <= rho * t + sigma for
    all windows, i.e. the process is (sigma(theta), rho(theta))-upper
    constrained at this theta.
    """

    theta: float
    sigma: float
    rho: float

    def __post_init__(self):
        if not 0 < self.theta < math.inf:
            raise ValueError("theta must be positive and finite")
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and nonnegative")
        if not 0 <= self.rho < math.inf:
            raise ValueError("rho must be finite and nonnegative")


def _vb_prefactor(theta, sigma, rho, r):
    # e^{theta sigma} / (1 - e^{theta (rho - r)}) for r > rho, elementwise;
    # expm1 keeps the denominator accurate when r is close to rho
    return np.exp(theta * sigma) / -np.expm1(theta * (rho - r))


def _minplus_vec(a, t1, b, t2, x):
    # min over the split point y of a e^{-t1 y} + b e^{-t2 (x-y)}: endpoints
    # plus the interior stationary point when it lands inside (0, x). A zero
    # prefactor sends the stationary point to +-inf (or nan for two zeros),
    # which the mask drops, so those lanes may go non-finite quietly.
    a = np.asarray(a, dtype=float)
    h0 = a + b * np.exp(-t2 * x)
    hx = a * np.exp(-t1 * x) + b
    vals = np.minimum(h0, hx)
    if x > 0:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ystar = (np.log(t1 * a / (t2 * b)) + t2 * x) / (t1 + t2)
            hin = a * np.exp(-t1 * ystar) * (1.0 + t1 / t2)
        ok = (ystar > 0.0) & (ystar < x)
        vals = np.where(ok, np.minimum(vals, hin), vals)
    return np.clip(vals, 0.0, 1.0)


def _dead_zone(a, t):
    # first integer m with a e^{-t m} < 1; zero when the prefactor is <= 1
    kf = np.floor(np.log(np.maximum(a, 1e-300)) / t + 1e-12) + 1.0
    return np.where(a <= 1.0, 0.0, kf)


def _indep_vec(a, t1, b, t2, x):
    """Independent-sum tail of f = a e^{-t1 x} and g = b e^{-t2 x} in closed
    form: 1 - sum_k (gbar(k)-gbar(k-1)) fbar(x-k) with fbar = max(0, 1-f),
    which equals g(K) + T for the last k = K with fbar(x-k) > 0 and T the
    f-weighted sum of g's steps. Summing those nonnegative terms keeps the
    tail's relative precision far below 1. Prefactors above 1 zero out
    fbar/gbar below a cutoff, which splits the geometric sum at integer
    offsets kf, kg."""
    a = np.asarray(a, dtype=float)
    kf = _dead_zone(a, t1)
    kg = _dead_zone(b, t2)
    K = x - kf  # last k with fbar(x-k) > 0
    cnt = K - kg
    d_kg = 1.0 - b * np.exp(-t2 * kg)
    g = t1 - t2
    # sum_{k=kg+1}^{K} e^{g k}, folded with e^{-t1 x} so exponents stay small;
    # empty-range lanes (K < kg) can carry huge exponents, so clamp before
    # exp -- they are masked out of the result below
    e1 = np.minimum(g * (K + 1.0) - t1 * x, 50.0)
    e0 = np.minimum(g * (kg + 1.0) - t1 * x, 50.0)
    gcnt = g * cnt
    em1g = np.expm1(g)
    safe_em1g = np.where(em1g == 0.0, 1.0, em1g)
    small = np.exp(e0) * np.expm1(np.minimum(gcnt, 50.0)) / safe_em1g
    big = (np.exp(e1) - np.exp(e0)) / safe_em1g
    geom_e = np.where(np.abs(g) < 1e-15, cnt * np.exp(e0),
                      np.where(gcnt > 30.0, big, small))
    geom_e = np.where(cnt > 0, geom_e, 0.0)
    T = a * (d_kg * np.exp(np.minimum(t1 * (kg - x), 50.0)) + b * np.expm1(t2) * geom_e)
    vals = np.where(K >= kg, b * np.exp(np.minimum(-t2 * K, 50.0)) + T, 1.0)
    return np.clip(vals, 0.0, 1.0)
