"""Backlog tail bounds for one 802.11 node: four bound variants, exact
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
from dataclasses import dataclass

import numpy as np

from .curves import _indep_vec, _minplus_vec, _vb_prefactor
from .dcf import ImpairmentModel, slot_length, solve_fixed_point, stable_rate_threshold

__all__ = [
    "VARIANTS",
    "GridOptions",
    "BoundSpec",
    "BacklogBound",
    "InfeasibleBoundError",
    "StabilityReport",
    "build_bound",
    "quantile",
    "quantile_table",
    "stability_check",
    "point_tail_value",
    "rate_to_mbps",
]

VARIANTS = ("bound1", "bound2", "bound3", "bound4")
X_MAX = 10 ** 6  # quantile search cap
CAPACITY = 1.0  # packets per slot; r_a + r_i must split this
# evaluate keeps a grid point while its lower bound lb <= ub (1 + _REL_SLACK),
# a margin for the rounding of the kernels' exp and sums
_REL_SLACK = 1e-9


class InfeasibleBoundError(RuntimeError):
    """No feasible parameter choice exists (or the quantile cap was hit)."""


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
        if not (0 < self.theta_min < math.inf and 0 < self.theta_max < math.inf):
            raise ValueError("theta_min and theta_max must be positive and finite")

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
        if not (0 < self.theta1 < math.inf and 0 < self.theta2 < math.inf):
            raise ValueError("theta1 and theta2 must be positive and finite")
        if not math.isfinite(self.r_a):
            raise ValueError("r_a must be finite")
        if not abs(self.r_a + self.r_i - CAPACITY) <= 1e-9:
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
    martingale tail when martingale is true. Both compositions share it.

    Points run in row-major (theta1, theta2) order with r_a innermost."""
    thetas = options.thetas()
    sig_a, rho_a = np.array([(s.sigma, s.rho) for s in map(arrival.sigma_rho, thetas)]).T
    sig_i, rho_i = np.array([(s.sigma, s.rho) for s in map(impairment.sigma_rho, thetas)]).T
    # the martingale tail needs r_a >= rho + sigma, the general one r_a > rho
    lo = rho_a + sig_a if martingale else rho_a
    width = (CAPACITY - rho_i)[None, :] - lo[:, None]
    i1, i2 = np.nonzero(width > 0)
    if not i1.size:
        raise InfeasibleBoundError(
            "no feasible (theta1, theta2, r_a) grid point: the arrival rate "
            "is too close to capacity for every theta")
    fracs = np.arange(1, options.r_points + 1) / (options.r_points + 1)
    j1, j2 = i1[:, None], i2[:, None]  # one row of r_a per (theta1, theta2)
    r_a = lo[j1] + width[j1, j2] * fracs
    a_f = (np.ones_like(r_a) if martingale
           else _vb_prefactor(thetas[j1], sig_a[j1], rho_a[j1], r_a))
    a_g = _vb_prefactor(thetas[j2], sig_i[j2], rho_i[j2], CAPACITY - r_a)
    return _Grid(theta1=np.repeat(thetas[i1], options.r_points),
                 theta2=np.repeat(thetas[i2], options.r_points),
                 r_a=r_a.ravel(), a_f=a_f.ravel(), a_g=a_g.ravel())


class BacklogBound:
    """Per-x optimized tail bound P{B > x} <= evaluate(x).

    evaluate(x) is the minimum of the variant's closed-form tail over the
    whole feasible grid, at the first grid point attaining it, as a full
    kernel pass with argmin gives it; the value, the winning index "i" and
    its spec are memoized in meta["best"]. The kernel runs only on points
    that can still win: each point's value is at least min(1, lb), with
    lb = max(f(x), g(x)) the larger of its two tails, and the memoized
    winner of the nearest x evaluated below 1, run at x, bounds the minimum
    by ub (1 when there is none). A point with lb > ub (1 + _REL_SLACK)
    cannot attain the minimum. If no other point falls below 1,
    every value is 1 and the full pass's argmin is index 0.
    """

    def __init__(self, variant: str, grid: _Grid):
        self.variant = variant
        self._grid = grid
        self.meta = {"variant": variant, "grid_points": len(grid),
                     "best": {}}

    def evaluate(self, x: int) -> float:
        if x < 0:
            raise ValueError("x must be nonnegative")
        best = self.meta["best"]
        hit = best.get(x)
        if hit is not None:
            return hit["value"]
        g, xf = self._grid, float(x)
        kernel = _indep_vec if _independent(self.variant) else _minplus_vec
        ub = 1.0
        seeds = [y for y, b in best.items() if b["value"] < 1.0]
        if seeds:
            j = best[min(seeds, key=lambda y: abs(y - x))]["i"]
            ub = float(kernel(g.a_f[j], g.theta1[j], g.a_g[j], g.theta2[j], xf))
        lb = np.maximum(g.a_f * np.exp(-g.theta1 * xf), g.a_g * np.exp(-g.theta2 * xf))
        keep = np.flatnonzero(lb <= ub * (1.0 + _REL_SLACK))
        i, value = 0, 1.0
        if keep.size:
            vals = kernel(g.a_f[keep], g.theta1[keep], g.a_g[keep], g.theta2[keep], xf)
            j = int(np.argmin(vals))
            if vals[j] < 1.0:
                i, value = int(keep[j]), float(vals[j])
        best[x] = {"value": value, "i": i, "spec": g.spec(i, self.variant)}
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
    Raises InfeasibleBoundError when the mean arrival rate reaches the
    sustainable rate: every envelope rate is at least its mean rate, so no
    grid point could be feasible.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if _needs_martingale(variant) and not getattr(arrival, "martingale_ok", False):
        raise ValueError(
            f"{variant} uses the martingale arrival tail, which needs "
            "independent per-slot increments; this arrival does not declare them")
    options = options or GridOptions()
    a_a = arrival.average_rate()
    a_i = impairment.average_rate()
    if a_a >= CAPACITY - a_i:
        raise InfeasibleBoundError(
            f"arrival rate {a_a:.4f} >= sustainable rate {CAPACITY - a_i:.4f}; "
            "no finite bound exists")
    grid = _build_grid(_needs_martingale(variant), arrival, impairment, options)
    return BacklogBound(variant, grid)


def quantile(bound: BacklogBound, p: float) -> int:
    """Smallest integer x with bound.evaluate(x) <= p.

    Doubles x until the bound crosses p, then bisects. Raises
    InfeasibleBoundError if the bound stays above p up to X_MAX.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if bound.evaluate(0) <= p:
        return 0
    lo, hi = 0, 1
    while bound.evaluate(hi) > p:
        if hi >= X_MAX:
            raise InfeasibleBoundError(
                f"bound stays above {p} for all x up to {X_MAX}")
        lo, hi = hi, min(hi * 2, X_MAX)
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
    if not 0 <= arrival_rate < math.inf:
        raise ValueError(f"arrival rate must be finite and nonnegative, got {arrival_rate}")
    fp = solve_fixed_point(params)
    threshold = stable_rate_threshold(fp)
    verdict = "stable-bound-derivable" if arrival_rate < threshold else "not-derivable"
    return StabilityReport(arrival_rate=arrival_rate, threshold=threshold,
                           threshold_mbps=rate_to_mbps(threshold, params),
                           verdict=verdict)


def point_tail_value(spec: BoundSpec, arrival, impairment: ImpairmentModel,
                     x: int, route: str = "direct") -> float:
    """Tail value of a single grid point, assembled from the (sigma, rho)
    pairs at its thetas.

    route="direct" takes both sup-window (vb) prefactors
    e^{th*sigma}/(1-e^{th(rho-r)}) as the grid does; route="aggregated"
    takes the per-window (ta) tail e^{th*sigma} at rate rho and sums it over
    windows with slack delta = r - rho, giving e^{th*sigma}/(1-e^{-th*delta}).
    The two assemblies are algebraically identical, which this function
    exists to demonstrate. The composition runs through the same
    closed-form kernel as the grid evaluation, so agreement with
    BacklogBound.evaluate checks the assembly of the tails, not a second
    implementation of the convolution; tests/test_curves.py checks the
    kernels against scalar oracles.
    """
    if _needs_martingale(spec.variant):
        raise ValueError("route comparison applies to the general-arrival variants")
    if route not in ("direct", "aggregated"):
        raise ValueError(f"unknown route {route!r}")
    if x < 0:
        raise ValueError("x must be nonnegative")
    prefactors = []
    for sr, r in ((arrival.sigma_rho(spec.theta1), spec.r_a),
                  (impairment.sigma_rho(spec.theta2), spec.r_i)):
        if not r > sr.rho:
            raise ValueError(f"a vb tail needs rate r > rho, got r={r}, rho={sr.rho}")
        if route == "direct":
            prefactors.append(float(_vb_prefactor(sr.theta, sr.sigma, sr.rho, r)))
        else:
            delta = r - sr.rho
            prefactors.append(math.exp(sr.theta * sr.sigma) / -math.expm1(-sr.theta * delta))
    a_f, a_g = prefactors
    kernel = _indep_vec if _independent(spec.variant) else _minplus_vec
    return float(kernel(a_f, spec.theta1, a_g, spec.theta2, float(x)))
