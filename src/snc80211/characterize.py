"""Characterization of traffic and service processes as (sigma, rho) envelopes.

Holds the envelope triple, the Poisson closed form and the error a
numerical envelope raises when it cannot be fitted. The impairment's
envelope is walked and fitted in dcf (ImpairmentModel).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SigmaRho",
    "FitConvergenceError",
    "poisson_sigma_rho",
    "PoissonTraffic",
]


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


@dataclass(frozen=True)
class PoissonTraffic:
    """Poisson arrivals at ``rate`` packets per slot.

    Per-slot increments are independent, so the martingale (prefactor-1)
    arrival bound applies; its envelope poisson_sigma_rho has sigma = 0.
    """

    rate: float

    def __post_init__(self):
        _check_rate(self.rate)
