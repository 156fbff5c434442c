"""Characterization of traffic and service processes as (sigma, rho) envelopes.

Sources: the Poisson closed form, or any numerically computable log-MGF
envelope y(t). The envelope fitter finds the first t where the per-slot
slope stabilizes and turns the envelope into a (sigma, rho) pair with a
guaranteed y(t) <= rho*t + sigma over the fitted range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "SigmaRho",
    "FitConvergenceError",
    "poisson_sigma_rho",
    "fit_sigma_rho",
    "PoissonTraffic",
]

_EPSILON = 1e-5  # relative band in which an envelope slope counts as settled
_SLACK = 1e-9  # how far a fitted line may lie below a y(t) it covers
DEFAULT_T_CAP = 10_000  # the largest t an envelope fit or the impairment MGF reaches


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


class FitConvergenceError(RuntimeError):
    """A numerical solve did not converge: the envelope slope never settled
    within the t cap (or the impairment MGF overflowed a float first), or
    the MAC fixed point could not be bracketed."""


def _check_rate(rate: float) -> None:
    if not 0.0 <= rate < math.inf:
        raise ValueError(f"rate must be finite and nonnegative, got {rate}")


def poisson_sigma_rho(lam: float, theta: float) -> SigmaRho:
    """Closed-form envelope of Poisson traffic: sigma = 0, rho = lam*(e^theta - 1)/theta."""
    _check_rate(lam)
    if not 0.0 < theta < math.inf:
        raise ValueError("theta must be positive and finite")
    try:
        rho = lam * math.expm1(theta) / theta
    except OverflowError:
        # as for the impairment MGF: no float envelope to fit at this theta
        raise FitConvergenceError(f"Poisson MGF overflows a float at theta={theta}") from None
    return SigmaRho(theta=theta, sigma=0.0, rho=rho)


def _settled(prev_s: float, s: float) -> bool:
    # the one settle test of an envelope slope, shared by fit_sigma_rho and
    # the impairment table walk that computes y(t) until it holds
    return (1.0 - _EPSILON) * prev_s <= s <= (1.0 + _EPSILON) * prev_s


def fit_sigma_rho(theta: float, y: Callable[[int], float]) -> SigmaRho:
    """Fit (sigma, rho) at theta to a log-MGF envelope y(t), t >= 1, with
    y(0) = 0 by definition, by slope stabilization.

    Walks t = 2, 3, ... and stops at the first t* where the slope
    s(t) = y(t) - y(t-1) settles (_settled): it lies within the relative
    band (1 - 1e-5) s(t-1) <= s(t) <= (1 + 1e-5) s(t-1). Then rho = s(t*)
    and sigma lifts the line rho*t through the largest gap over t <= t*,
    so y(t) <= rho*t + sigma on the whole fitted range (checked). Each
    y(t) is called once, up to t* and no further.

    Raises FitConvergenceError if no t* is found up to DEFAULT_T_CAP.
    """
    ys = [0.0, y(1)]
    prev_s = ys[1] - ys[0]
    for t in range(2, DEFAULT_T_CAP + 1):
        ys.append(y(t))
        s = ys[t] - ys[t - 1]
        if _settled(prev_s, s):
            rho = s
            # sigma = max gap between y and the rate line, never below zero
            sigma = max(ys[i] - rho * i for i in range(t + 1))
            sigma = max(0.0, sigma)
            if any(ys[i] > rho * i + sigma + _SLACK for i in range(t + 1)):
                raise RuntimeError("fitted envelope violated")
            return SigmaRho(theta=theta, sigma=sigma, rho=rho)
        prev_s = s
    raise FitConvergenceError(f"slope did not stabilize within t_cap={DEFAULT_T_CAP}")


@dataclass(frozen=True)
class PoissonTraffic:
    """Poisson arrivals at ``rate`` packets per slot.

    Per-slot increments are independent, so the martingale (prefactor-1)
    arrival bound applies; its envelope poisson_sigma_rho has sigma = 0.
    """

    rate: float

    def __post_init__(self):
        _check_rate(self.rate)
