"""Curve and bounding-function algebra for stochastic tail bounds.

Traffic and service processes are summarized by a linear envelope ``r * t``
paired with a decreasing tail-bound function ("bounding function"). Two
composition rules combine an arrival bound with a service bound: a min-plus
convolution for the general case and a complemented Stieltjes convolution
when the two processes are independent.

Bounding functions clamp to [0, 1] on evaluation but keep their raw
exponential parameters so the convolutions can use closed forms. Each rule
has one closed-form kernel that takes scalars or whole parameter grids; the
scalar convolutions and the bound optimizer in ``bounds`` both call it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SigmaRho",
    "BoundingFunction",
    "CurveWithBound",
    "ta_curve_from_sigma_rho",
    "vb_curve_from_sigma_rho",
    "vb_curve_martingale",
    "ta_to_vb",
    "minplus_convolve",
    "independent_tail_convolve",
]

CURVE_KINDS = ("ta-arrival", "vb-arrival", "ws-service")


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
        if not self.theta > 0:
            raise ValueError("theta must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")


@dataclass(frozen=True)
class BoundingFunction:
    """An exponential tail bound ``prefactor * exp(-decay * x)``.

    ``evaluate`` clamps to [0, 1]; ``raw`` returns the unclamped value that
    the convolution algebra works with.
    """

    prefactor: float = 1.0
    decay: float = 1.0

    def __post_init__(self):
        if self.prefactor < 0:
            raise ValueError("prefactor must be nonnegative")
        if not self.decay > 0:
            raise ValueError("decay must be positive")

    @classmethod
    def exponential(cls, prefactor: float, decay: float) -> "BoundingFunction":
        return cls(prefactor=prefactor, decay=decay)

    def raw(self, x) -> float:
        """Unclamped value at x >= 0."""
        if x < 0:
            raise ValueError("x must be nonnegative")
        return self.prefactor * math.exp(-self.decay * x)

    def evaluate(self, x) -> float:
        """Value at x clamped to [0, 1], a usable tail probability."""
        return min(1.0, max(0.0, self.raw(x)))


@dataclass(frozen=True)
class CurveWithBound:
    """A linear curve ``rate * t`` with its tail-bound function.

    kind is one of 'ta-arrival' (traffic-amount bound), 'vb-arrival'
    (virtual-backlog bound) or 'ws-service' (weak stochastic service).
    """

    rate: float
    bound: BoundingFunction
    kind: str

    def __post_init__(self):
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"kind must be one of {CURVE_KINDS}")
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise ValueError("rate must be finite and nonnegative")

    def curve(self, t) -> float:
        return self.rate * t


def ta_curve_from_sigma_rho(sr: SigmaRho, r: float) -> CurveWithBound:
    """Traffic-amount arrival curve r*t with bound exp(theta*sigma) * exp(-theta*x).

    Requires r >= rho; below the envelope rate the bound does not hold.
    """
    if r < sr.rho:
        raise ValueError(f"ta curve needs rate r >= rho, got r={r} < rho={sr.rho}")
    a = math.exp(sr.theta * sr.sigma)
    return CurveWithBound(rate=r, bound=BoundingFunction.exponential(a, sr.theta), kind="ta-arrival")


def vb_curve_from_sigma_rho(sr: SigmaRho, r: float) -> CurveWithBound:
    """Virtual-backlog arrival curve with the geometric-sum prefactor.

    bound(x) = exp(theta*sigma) / (1 - exp(theta*(rho - r))) * exp(-theta*x),
    valid only for r strictly above rho (the prefactor diverges at r = rho).
    """
    if r <= sr.rho:
        raise ValueError(f"vb curve needs rate r > rho strictly, got r={r}, rho={sr.rho}")
    # 1 - e^{theta(rho-r)} via expm1 for accuracy when r is close to rho
    denom = -math.expm1(sr.theta * (sr.rho - r))
    a = math.exp(sr.theta * sr.sigma) / denom
    return CurveWithBound(rate=r, bound=BoundingFunction.exponential(a, sr.theta), kind="vb-arrival")


def vb_curve_martingale(sr: SigmaRho, r: float) -> CurveWithBound:
    """Virtual-backlog curve with prefactor exactly 1, bound exp(-theta*x).

    Valid for processes with independent per-slot increments (a supermartingale
    argument removes the geometric prefactor); the caller asserts that
    property, it cannot be checked here. Requires r >= rho + sigma.
    """
    if r < sr.rho + sr.sigma:
        raise ValueError(
            f"martingale vb curve needs r >= rho + sigma, got r={r} < {sr.rho + sr.sigma}"
        )
    return CurveWithBound(rate=r, bound=BoundingFunction.exponential(1.0, sr.theta), kind="vb-arrival")


def ta_to_vb(curve: CurveWithBound, delta: float) -> CurveWithBound:
    """Convert a ta arrival curve to a vb one by relaxing the rate by delta.

    The vb bounding function is the tail sum f(x) + f(x+delta) + ... whose
    geometric closed form is a / (1 - exp(-theta*delta)); the rate becomes
    r + delta.
    """
    if curve.kind != "ta-arrival":
        raise ValueError("ta_to_vb expects a ta-arrival curve")
    if delta <= 0:
        raise ValueError("delta must be positive")
    theta = curve.bound.decay
    a = curve.bound.prefactor / (-math.expm1(-theta * delta))
    return CurveWithBound(rate=curve.rate + delta, bound=BoundingFunction.exponential(a, theta), kind="vb-arrival")


def minplus_convolve(f: BoundingFunction, g: BoundingFunction, x: int) -> float:
    """Min-plus convolution min over real 0<=y<=x of f(y) + g(x-y), clamped
    to [0, 1], through the same closed form the bound grid uses."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    return float(_minplus_vec(f.prefactor, f.decay, g.prefactor, g.decay, float(x)))


def independent_tail_convolve(f: BoundingFunction, g: BoundingFunction, x: int) -> float:
    """Tail bound at integer x for the sum of two independent quantities
    bounded by f and g, through the same closed form the bound grid uses.

    The bound is the complemented Stieltjes form
        1 - sum_{k=0..x} (Gbar(k) - Gbar(k-1)) * Fbar(x-k)
    with Fbar(m) = max(0, 1 - f(m)), Gbar likewise and Gbar(-1) = 0. This
    equals the classical independent-sum bound
        g(x) + sum_k (g(k-1) - g(k)) * f(x-k)
    written with clamped f, g, and is nonincreasing in x.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    return float(_indep_vec(f.prefactor, f.decay, g.prefactor, g.decay, float(x)))


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
    """Complemented independent-case convolution of a e^{-t1 x} and
    b e^{-t2 x} in closed form: 1 - sum_k (gbar(k)-gbar(k-1)) fbar(x-k) with
    fbar = max(0, 1-f). Prefactors above 1 zero out fbar/gbar below a cutoff,
    which splits the geometric sum at integer offsets kf, kg."""
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
    S = (1.0 - b * np.exp(np.minimum(-t2 * K, 50.0))) - T
    vals = np.where(K >= kg, 1.0 - S, 1.0)
    return np.clip(vals, 0.0, 1.0)
