"""Characterization of traffic and service processes as (sigma, rho) envelopes.

Sources: the Poisson closed form, empirical traces, or any numerically
computable MGF envelope y(t). The envelope fitter finds the first t where the
per-slot slope stabilizes and turns the envelope into a (sigma, rho) pair
with a guaranteed y(t) <= rho*t + sigma over the fitted range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import logsumexp

from .curves import SigmaRho

__all__ = [
    "FitConvergenceError",
    "MgfEnvelope",
    "TraceData",
    "poisson_sigma_rho",
    "fit_sigma_rho",
    "trace_mgf_envelope",
    "average_rate",
    "PoissonTraffic",
    "TraceTraffic",
]

DEFAULT_EPSILON = 1e-5
DEFAULT_T_CAP = 10_000


class FitConvergenceError(RuntimeError):
    """A numerical solve did not converge: the envelope slope never settled
    within the t cap (or the impairment MGF overflowed a float first), or
    the MAC fixed point could not be bracketed."""


@dataclass
class MgfEnvelope:
    """A log-MGF envelope y(t) = sup_s (1/theta) log E exp(theta X(s, s+t)).

    y(0) is 0 by definition; values for t >= 1 come from ``fn`` and are
    memoized because envelope sources are often expensive.
    """

    theta: float
    fn: Callable[[int], float]
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def y(self, t: int) -> float:
        if t < 0:
            raise ValueError("t must be nonnegative")
        if t == 0:
            return 0.0
        v = self._memo.get(t)
        if v is None:
            v = float(self.fn(t))
            self._memo[t] = v
        return v


@dataclass(frozen=True)
class TraceData:
    """Per-slot arrival counts read from a recorded trace."""

    increments: tuple
    slot_unit: str = "slot"

    def __post_init__(self):
        vals = tuple(int(v) for v in self.increments)
        if not vals:
            raise ValueError("trace must be nonempty")
        if any(v < 0 for v in vals):
            raise ValueError("trace increments must be nonnegative")
        object.__setattr__(self, "increments", vals)

    @classmethod
    def from_file(cls, path, slot_unit: str = "slot") -> "TraceData":
        """Parse a plain-text trace, one nonnegative integer per line."""
        vals = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    vals.append(int(line))
        return cls(increments=tuple(vals), slot_unit=slot_unit)


def poisson_sigma_rho(lam: float, theta: float) -> SigmaRho:
    """Closed-form envelope of Poisson traffic: sigma = 0, rho = lam*(e^theta - 1)/theta."""
    if lam < 0:
        raise ValueError("rate must be nonnegative")
    if theta <= 0:
        raise ValueError("theta must be positive")
    rho = lam * math.expm1(theta) / theta
    return SigmaRho(theta=theta, sigma=0.0, rho=rho)


def fit_sigma_rho(env: MgfEnvelope, epsilon: float = DEFAULT_EPSILON,
                  t_cap: int = DEFAULT_T_CAP) -> SigmaRho:
    """Fit (sigma, rho) to an envelope by slope stabilization.

    Walks t = 2, 3, ... and stops at the first t* where the slope
    s(t) = y(t) - y(t-1) lies within the relative band
    (1 - epsilon) s(t-1) <= s(t) <= (1 + epsilon) s(t-1). Then rho = s(t*)
    and sigma lifts the line rho*t through the largest gap over t <= t*,
    so y(t) <= rho*t + sigma on the whole fitted range (asserted).

    Raises FitConvergenceError if no t* is found up to t_cap.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    ys = [env.y(0), env.y(1)]
    prev_s = ys[1] - ys[0]
    for t in range(2, t_cap + 1):
        ys.append(env.y(t))
        s = ys[t] - ys[t - 1]
        if (1.0 - epsilon) * prev_s <= s <= (1.0 + epsilon) * prev_s:
            rho = s
            # sigma = max gap between y and the rate line, never below zero
            sigma = max(ys[i] - rho * i for i in range(t + 1))
            sigma = max(0.0, sigma)
            for i in range(t + 1):
                assert ys[i] <= rho * i + sigma + 1e-9, "fitted envelope violated"
            return SigmaRho(theta=env.theta, sigma=sigma, rho=rho)
        prev_s = s
    raise FitConvergenceError(f"slope did not stabilize within t_cap={t_cap}")


def trace_mgf_envelope(trace: TraceData, theta: float, max_t: int) -> MgfEnvelope:
    """Empirical MGF envelope from one trace via sliding windows.

    y(t) = (1/theta) log( mean over all windows of length t of
    exp(theta * window sum) ), computed with a log-sum-exp. Treating the
    window average as the sup over start times assumes ergodicity; short
    traces bias the estimate low.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    n = len(trace.increments)
    if not 0 < max_t < n:
        raise ValueError(f"max_t must be in [1, {n - 1}] for a trace of length {n}")
    inc = np.asarray(trace.increments, dtype=float)
    csum = np.concatenate([[0.0], np.cumsum(inc)])

    def fn(t: int) -> float:
        if t > max_t:
            raise ValueError(f"envelope only computed up to max_t={max_t}")
        wsums = csum[t:] - csum[:-t]
        return (logsumexp(theta * wsums) - math.log(len(wsums))) / theta

    return MgfEnvelope(theta=theta, fn=fn)


def average_rate(source) -> float:
    """Long-run mean rate of a traffic or impairment source, packets per slot."""
    if isinstance(source, TraceData):
        return float(np.mean(source.increments))
    rate_fn = getattr(source, "average_rate", None)
    if callable(rate_fn):
        return float(rate_fn())
    raise TypeError(f"cannot extract an average rate from {type(source).__name__}")


@dataclass(frozen=True)
class PoissonTraffic:
    """Poisson arrivals at ``rate`` packets per slot.

    Per-slot increments are independent, so the martingale (prefactor-1)
    arrival bound applies.
    """

    rate: float
    martingale_ok = True

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("rate must be nonnegative")

    def sigma_rho(self, theta: float) -> SigmaRho:
        return poisson_sigma_rho(self.rate, theta)

    def average_rate(self) -> float:
        return self.rate


@dataclass
class TraceTraffic:
    """Arrival model backed by a recorded trace.

    sigma_rho(theta) fits the empirical envelope up to ``max_t`` windows.
    Trace increments are generally correlated across slots, so the
    martingale bound is not offered for this source.
    """

    trace: TraceData
    max_t: int = 200
    epsilon: float = DEFAULT_EPSILON
    martingale_ok = False

    def sigma_rho(self, theta: float) -> SigmaRho:
        max_t = min(self.max_t, len(self.trace.increments) - 1)
        env = trace_mgf_envelope(self.trace, theta, max_t)
        return fit_sigma_rho(env, epsilon=self.epsilon, t_cap=max_t)

    def average_rate(self) -> float:
        return float(np.mean(self.trace.increments))
