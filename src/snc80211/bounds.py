"""Backlog tail bounds for one 802.11 node: four bound variants, exhaustive
grid optimization of the free parameters, quantile queries, and the stability
test.

Variants differ along two axes. The arrival tail is either the general
sup-window (vb) bound with geometric prefactor e^{th*sigma}/(1-e^{th(rho-r)}),
or the prefactor-free martingale bound e^{-th*x} (valid only for arrivals with
independent per-slot increments and r >= rho+sigma). The combination with the
service tail is either the min-plus convolution (no independence assumed) or
the complemented convolution that exploits independence of arrivals and
channel impairment.

  bound1: general arrival tail, min-plus combination
  bound2: martingale arrival tail, min-plus combination
  bound3: general arrival tail, independent combination
  bound4: martingale arrival tail, independent combination

Every grid point (theta1, theta2, r_a) yields a valid bound on its own, so
the per-x minimum over the grid is itself a valid bound.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .characterize import average_rate
from .curves import (
    _indep_vec,
    _minplus_vec,
    independent_tail_convolve,
    minplus_convolve,
    ta_curve_from_sigma_rho,
    ta_to_vb,
    vb_curve_from_sigma_rho,
)
from .dcf import ImpairmentModel, slot_length, solve_fixed_point, stable_rate_threshold

__all__ = [
    "VARIANTS",
    "GridOptions",
    "BoundSpec",
    "BacklogBound",
    "InfeasibleBoundError",
    "VacuousBoundWarning",
    "StabilityReport",
    "build_bound",
    "quantile",
    "quantile_table",
    "stability_check",
    "point_tail_value",
    "rate_to_mbps",
]

VARIANTS = ("bound1", "bound2", "bound3", "bound4")
DEFAULT_X_MAX = 10 ** 6
CAPACITY = 1.0  # packets per slot; r_a + r_i must split this


class InfeasibleBoundError(RuntimeError):
    """No feasible parameter choice exists (or the quantile cap was hit)."""


class VacuousBoundWarning(UserWarning):
    """The requested bound cannot be informative (clamps to 1)."""


@dataclass(frozen=True)
class GridOptions:
    """Search grid for the free parameters.

    theta1/theta2 range over log-spaced points; r_a takes interior points of
    the feasible interval (rho_a-side lower end, 1 - rho_i upper end) at
    j/(r_points+1) fractions, j = 1..r_points.
    """

    theta_points: int = 40
    theta_min: float = 0.01
    theta_max: float = 5.0
    r_points: int = 60

    def __post_init__(self):
        if self.theta_points < 1 or self.r_points < 1:
            raise ValueError("theta_points and r_points must be at least 1")
        if not (self.theta_min > 0 and self.theta_max > 0):
            raise ValueError("theta_min and theta_max must be positive")

    def thetas(self) -> np.ndarray:
        return np.geomspace(self.theta_min, self.theta_max, self.theta_points)


@dataclass(frozen=True)
class BoundSpec:
    """One fully specified bound: variant plus its free parameters."""

    variant: str
    theta1: float
    theta2: float
    r_a: float
    r_i: float

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.theta1 <= 0 or self.theta2 <= 0:
            raise ValueError("theta1 and theta2 must be positive")
        if abs(self.r_a + self.r_i - CAPACITY) > 1e-9:
            raise ValueError("r_a + r_i must equal the capacity of 1 packet/slot")


def _needs_martingale(variant: str) -> bool:
    return variant in ("bound2", "bound4")


def _independent(variant: str) -> bool:
    return variant in ("bound3", "bound4")


@dataclass
class _Grid:
    """Flattened feasible grid with precomputed tail parameters."""

    theta1: np.ndarray
    theta2: np.ndarray
    r_a: np.ndarray
    a_f: np.ndarray  # arrival tail prefactor
    a_g: np.ndarray  # service tail prefactor

    def __len__(self):
        return self.theta1.size

    def spec(self, i: int, variant: str) -> BoundSpec:
        r_a = float(self.r_a[i])
        return BoundSpec(variant=variant, theta1=float(self.theta1[i]),
                         theta2=float(self.theta2[i]), r_a=r_a,
                         r_i=CAPACITY - r_a)


def _build_grid(martingale: bool, arrival, impairment, options: GridOptions) -> _Grid:
    """The feasible grid for one arrival tail: the general vb tail, or the
    martingale tail when martingale is true. Both compositions share it."""
    thetas = options.thetas()
    arr_sr = [arrival.sigma_rho(th) for th in thetas]
    imp_sr = [impairment.sigma_rho(th) for th in thetas]
    fracs = np.arange(1, options.r_points + 1) / (options.r_points + 1)
    t1s, t2s, ras, afs, ags = [], [], [], [], []
    for i1, th1 in enumerate(thetas):
        sa = arr_sr[i1]
        lo = sa.rho + sa.sigma if martingale else sa.rho
        for i2, th2 in enumerate(thetas):
            si = imp_sr[i2]
            hi = CAPACITY - si.rho
            width = hi - lo
            if width <= 0:
                continue
            r_a = lo + width * fracs
            r_i = CAPACITY - r_a
            if martingale:
                a_f = np.ones_like(r_a)
            else:
                # e^{th sigma}/(1 - e^{th (rho - r)}), r > rho guaranteed
                a_f = math.exp(th1 * sa.sigma) / -np.expm1(th1 * (sa.rho - r_a))
            a_g = math.exp(th2 * si.sigma) / -np.expm1(th2 * (si.rho - r_i))
            t1s.append(np.full_like(r_a, th1))
            t2s.append(np.full_like(r_a, th2))
            ras.append(r_a)
            afs.append(a_f)
            ags.append(a_g)
    if not ras:
        raise InfeasibleBoundError(
            "no feasible (theta1, theta2, r_a) grid point: the arrival rate "
            "is too close to capacity for every theta")
    return _Grid(theta1=np.concatenate(t1s), theta2=np.concatenate(t2s),
                 r_a=np.concatenate(ras), a_f=np.concatenate(afs),
                 a_g=np.concatenate(ags))


class BacklogBound:
    """Per-x optimized tail bound P{B > x} <= evaluate(x).

    evaluate minimizes the variant's closed-form tail expression over the
    whole feasible grid independently at each x; results and the winning
    grid point are memoized in meta["best"].
    """

    def __init__(self, variant: str, grid: _Grid):
        self.variant = variant
        self._grid = grid
        self.meta = {"variant": variant, "grid_points": len(grid),
                     "best": {}}

    def _values(self, x: int) -> np.ndarray:
        g = self._grid
        if _independent(self.variant):
            return _indep_vec(g.a_f, g.theta1, g.a_g, g.theta2, float(x))
        return _minplus_vec(g.a_f, g.theta1, g.a_g, g.theta2, float(x))

    def evaluate(self, x: int) -> float:
        if x < 0:
            raise ValueError("x must be nonnegative")
        hit = self.meta["best"].get(x)
        if hit is not None:
            return hit["value"]
        vals = self._values(x)
        i = int(np.argmin(vals))
        value = float(vals[i])
        self.meta["best"][x] = {"value": value, "spec": self._grid.spec(i, self.variant)}
        return value

    def spec_at(self, x: int) -> BoundSpec:
        """The grid point achieving the minimum at x."""
        self.evaluate(x)
        return self.meta["best"][x]["spec"]

    def grid_specs(self):
        """All feasible grid points, for audits and cross-checks."""
        return [self._grid.spec(i, self.variant) for i in range(len(self._grid))]


def build_bound(variant: str, arrival, impairment: ImpairmentModel,
                options: GridOptions | None = None) -> BacklogBound:
    """Assemble the per-x optimized bound of one variant.

    arrival must expose sigma_rho(theta), average_rate() and, for the
    martingale variants, martingale_ok=True (independent per-slot
    increments; cannot be verified here, it is a documented contract).
    Warns with VacuousBoundWarning when the mean arrival rate reaches the
    sustainable rate.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if _needs_martingale(variant) and not getattr(arrival, "martingale_ok", False):
        raise ValueError(
            f"{variant} uses the martingale arrival tail, which needs "
            "independent per-slot increments; this arrival does not declare them")
    options = options or GridOptions()
    a_a = average_rate(arrival)
    a_i = impairment.average_rate()
    if a_a >= CAPACITY - a_i:
        warnings.warn(
            f"arrival rate {a_a:.4f} >= sustainable rate {CAPACITY - a_i:.4f}; "
            "bounds will be vacuous", VacuousBoundWarning, stacklevel=2)
    grid = _build_grid(_needs_martingale(variant), arrival, impairment, options)
    return BacklogBound(variant, grid)


def quantile(bound: BacklogBound, p: float, x_max: int = DEFAULT_X_MAX) -> int:
    """Smallest integer x with bound.evaluate(x) <= p.

    Doubles x until the bound crosses p, then bisects. Raises
    InfeasibleBoundError if the bound stays above p up to x_max.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if bound.evaluate(0) <= p:
        return 0
    lo, hi = 0, 1
    while bound.evaluate(hi) > p:
        if hi >= x_max:
            raise InfeasibleBoundError(
                f"bound stays above {p} for all x up to {x_max}")
        lo, hi = hi, min(hi * 2, x_max)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound.evaluate(mid) <= p:
            hi = mid
        else:
            lo = mid
    return hi


def quantile_table(arrival, impairment: ImpairmentModel, p_list,
                   variants=VARIANTS, options: GridOptions | None = None):
    """Rows of {p, variant -> quantile} for each p, sharing one optimized
    bound per variant across all rows. Variants with the same arrival tail
    share one grid, so at most two grids are built."""
    bounds, grids = {}, {}  # grids: one per arrival tail, martingale or not
    for v in variants:
        grid = grids.get(_needs_martingale(v))
        bounds[v] = (build_bound(v, arrival, impairment, options) if grid is None
                     else BacklogBound(v, grid))
        grids[_needs_martingale(v)] = bounds[v]._grid
    return [{"p": p, **{v: quantile(bounds[v], p) for v in variants}} for p in p_list]


@dataclass(frozen=True)
class StabilityReport:
    arrival_rate: float
    threshold: float       # packets per slot
    threshold_mbps: float
    verdict: str           # stable-bound-derivable | not-derivable


def rate_to_mbps(rate_pkts_per_slot: float, params) -> float:
    """packets/slot -> Mbps of payload, one slot being L idle slots."""
    L = slot_length(params)
    bits_per_slot_time = params.payload * 8.0
    slot_us = L * params.idle_slot
    return rate_pkts_per_slot * bits_per_slot_time / slot_us


def stability_check(arrival_rate: float, params) -> StabilityReport:
    """Can a finite backlog bound be derived at this arrival rate?

    The threshold is the sustainable service rate p_s L / (p_nt + p_t L);
    strictly below it the bound machinery applies, at or above it no finite
    bound is derivable this way.
    """
    if arrival_rate < 0:
        raise ValueError("arrival rate must be nonnegative")
    fp = solve_fixed_point(params)
    threshold = stable_rate_threshold(fp)
    verdict = "stable-bound-derivable" if arrival_rate < threshold else "not-derivable"
    return StabilityReport(arrival_rate=arrival_rate, threshold=threshold,
                           threshold_mbps=rate_to_mbps(threshold, params),
                           verdict=verdict)


def point_tail_value(spec: BoundSpec, arrival, impairment: ImpairmentModel,
                     x: int, route: str = "direct") -> float:
    """Tail value of a single grid point, assembled through curve objects.

    route="direct" builds both sup-window (vb) tails straight from the
    (sigma, rho) pairs; route="aggregated" first forms the per-window (ta)
    tail at rate rho and then aggregates windows geometrically with
    delta = r - rho. The two assemblies are algebraically identical, which
    this function exists to demonstrate. The composition runs through the
    same closed-form kernel as the grid evaluation, so agreement with
    BacklogBound.evaluate checks the assembly of the tails, not a second
    implementation of the convolution; tests/test_curves.py checks the
    kernels against scalar oracles.
    """
    if _needs_martingale(spec.variant):
        raise ValueError("route comparison applies to the general-arrival variants")
    sr_a = arrival.sigma_rho(spec.theta1)
    sr_i = impairment.sigma_rho(spec.theta2)
    if route == "direct":
        f = vb_curve_from_sigma_rho(sr_a, spec.r_a).bound
        g = vb_curve_from_sigma_rho(sr_i, spec.r_i).bound
    elif route == "aggregated":
        f = ta_to_vb(ta_curve_from_sigma_rho(sr_a, sr_a.rho),
                     spec.r_a - sr_a.rho).bound
        g = ta_to_vb(ta_curve_from_sigma_rho(sr_i, sr_i.rho),
                     spec.r_i - sr_i.rho).bound
    else:
        raise ValueError(f"unknown route {route!r}")
    if _independent(spec.variant):
        return independent_tail_convolve(f, g, x)
    return minplus_convolve(f, g, x)
