"""Backlog tail bounds for one 802.11 node: four bound variants, exact
grid optimization of the free parameters, and quantile queries.

Variants differ along two axes. The arrival tail is either the general
sup-window (vb) bound with geometric prefactor e^{th*sigma}/(1-e^{th(rho-r)}),
or the prefactor-free martingale bound e^{-th*x} (valid for arrivals with
independent per-slot increments and r >= rho+sigma, whose one grid point per
(theta1, theta2) is the best r = rho+sigma). The combination with the
service tail is either the min-plus convolution (no independence assumed) or
the complemented convolution that exploits independence of arrivals and
channel impairment. Each combination is one closed-form kernel on the two
tails a e^{-theta x} (_minplus_vec, _indep_vec) that takes scalars or whole
parameter grids; the grid optimizer and point_tail_value share it. On the
grid the min-plus kernel is min(1, e^{c - d x}), so its quantile needs no search.

  bound1: general arrival tail, min-plus combination
  bound2: martingale arrival tail, min-plus combination
  bound3: general arrival tail, independent combination
  bound4: martingale arrival tail, independent combination

Every grid point (theta1, theta2, r_a) yields a valid bound on its own, so
the per-x minimum over the grid is itself a valid bound.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .characterize import PoissonTraffic, poisson_sigma_rho
from .dcf import ImpairmentModel, slot_length

__all__ = [
    "VARIANTS",
    "GridOptions",
    "BoundSpec",
    "BacklogBound",
    "InfeasibleBoundError",
    "build_bound",
    "quantile",
    "quantile_table",
    "point_tail_value",
    "rate_to_mbps",
]


def _vb_prefactor(theta, sigma, rho, r):
    # e^{theta sigma} / (1 - e^{theta (rho - r)}) for r > rho, elementwise;
    # expm1 keeps the denominator accurate when r is close to rho
    return np.exp(theta * sigma) / -np.expm1(theta * (rho - r))


def _minplus_vec(a, t1, b, t2, x):
    """min over 0 <= y <= x of a e^{-t1 y} + b e^{-t2 (x-y)}, clamped at 1,
    for prefactors a, b >= 1 (every vb prefactor, the martingale tail's a = 1):
    both end values then exceed 1, so a value below 1 is the stationary one,
    e^{c - d x} for _minplus_floor's term (c, d). x may be one value per lane."""
    ((c, d),) = _minplus_floor(a, t1, b, t2)
    return np.exp(np.minimum(c - d * x, 0.0))


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


def _minplus_floor(a, t1, b, t2):
    """The min-plus kernel's term (c, d): its stationary value is e^{c - d x},
    and c grows in both prefactors, so a' <= a, b' <= b give a floor at a, b."""
    c = (t2 * np.log(a) + t1 * np.log(b) + t1 * np.log(t2 / t1)) / (t1 + t2) + np.log1p(t1 / t2)
    return ((c, t1 * t2 / (t1 + t2)),)


def _indep_floor(a, t1, b, t2):
    """Terms (c, d) with max(c - d x) <= log _indep_vec(a', t1, b', t2, x)
    for all integer x >= 0 and all a' >= a, b' >= b, elementwise, until the
    kernel clamps at 1. The kernel is the tail of X + Y, where Y >= kg and
    X >= kf surely (the dead zones of the smallest prefactors), so it is at
    least f(x - kg) and g(x - kf)."""
    kf, kg = _dead_zone(a, t1), _dead_zone(b, t2)
    return (np.log(a) + t1 * kg, t1), (np.log(b) + t2 * kf, t2)


# variant -> (martingale arrival tail?, kernel combining the two tails)
_FORMS = {
    "bound1": (False, _minplus_vec),
    "bound2": (True, _minplus_vec),
    "bound3": (False, _indep_vec),
    "bound4": (True, _indep_vec),
}
_FLOORS = {_minplus_vec: _minplus_floor, _indep_vec: _indep_floor}  # kernel -> row floor
VARIANTS = tuple(_FORMS)
X_MAX = 10 ** 6  # quantile cap
CAPACITY = 1.0  # packets per slot, split between r_a and r_i
# evaluate keeps a grid row while its floor is <= ub (1 + _REL_SLACK), a
# margin for the rounding of the kernels' exp and sums
_REL_SLACK = 1e-9
_TINY = sys.float_info.min  # smallest normal float
# Largest theta_points**2 * r_points (the general tail's grid), ten times the
# default 96,000. A grid holds three floats per point, an _evaluate_many pass
# as many row floors, and a kernel call (a grid pass or a pass's x count of
# points at most) a dozen per point: bounds --rate 0.02 peaks at 116 MB
# resident in 0.6-0.8 s with theta_points = 1000, r_points = 1, at 61 MB in
# 0.05-0.06 s with 40 and 625, and at 34 MB by default.
_GRID_POINTS_MAX = 10 ** 6


def _form(variant: str):
    if variant not in _FORMS:
        raise ValueError(f"unknown variant {variant!r}")
    return _FORMS[variant]


class InfeasibleBoundError(RuntimeError):
    """No feasible parameter choice exists (or the quantile cap was hit)."""


@dataclass(frozen=True)
class GridOptions:
    """Search grid for the free parameters.

    theta1/theta2 range over log-spaced points; on the general arrival tail's
    grid (bound1, bound3), r_a takes interior points of the feasible interval
    (rho_a lower end, 1 - rho_i upper end) at j/(r_points+1), j = 1..r_points.
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
        if self.theta_min > self.theta_max:
            raise ValueError(f"theta_min {self.theta_min} is above theta_max {self.theta_max}")
        points = self.theta_points ** 2 * self.r_points
        if points > _GRID_POINTS_MAX:
            raise ValueError(f"theta_points**2 * r_points = {points} grid points is past "
                             f"the limit of {_GRID_POINTS_MAX}")

    def thetas(self) -> np.ndarray:
        return np.geomspace(self.theta_min, self.theta_max, self.theta_points)


@dataclass(frozen=True)
class BoundSpec:
    """One fully specified bound: variant plus its free parameters. The
    service share r_i is the rest of the capacity."""

    variant: str
    theta1: float
    theta2: float
    r_a: float

    def __post_init__(self):
        _form(self.variant)  # rejects an unknown variant
        if not (0 < self.theta1 < math.inf and 0 < self.theta2 < math.inf):
            raise ValueError("theta1 and theta2 must be positive and finite")
        if not math.isfinite(self.r_a):
            raise ValueError("r_a must be finite")

    @property
    def r_i(self) -> float:
        return CAPACITY - self.r_a


@dataclass
class _Grid:
    """Feasible grid with precomputed tail prefactors, one row per feasible
    (theta1, theta2) pair: theta1 and theta2 hold each row's pair, and r_a,
    a_f and a_g are rows x n arrays (n = r_points, or 1 on the martingale
    tail). Point i is column i % n of row i // n (row-major)."""

    theta1: np.ndarray
    theta2: np.ndarray
    r_a: np.ndarray
    a_f: np.ndarray  # arrival tail prefactor, 1 on the martingale tail
    a_g: np.ndarray  # service tail prefactor

    def __len__(self):
        return self.r_a.size

    def spec(self, i: int, variant: str) -> BoundSpec:
        k = i // self.r_a.shape[1]
        return BoundSpec(variant=variant, theta1=float(self.theta1[k]),
                         theta2=float(self.theta2[k]), r_a=float(self.r_a.flat[i]))


def _build_grid(rate: float, impairment, options: GridOptions, martingale: bool) -> _Grid:
    """One arrival tail's feasible grid for Poisson arrivals at rate (sigma_A =
    0): a row per (theta1, theta2) with rho_A < 1 - rho_I, row-major. The
    general tail takes GridOptions' interior r_a > rho_A along each row. The
    martingale tail (a_f = 1) holds for every r_a >= rho_A + sigma_A = rho_A,
    where e^{theta1 (A(t) - rho_A t)} is a martingale (Ville's inequality).
    a_g = e^{theta2 sigma_I}/(1 - e^{theta2 (rho_I - (1 - r_a))}) grows with
    r_a and both kernels are nondecreasing in each prefactor, so its one
    column, r_a = rho_A, is each row's best point."""
    thetas = options.thetas()
    rho_a = np.array([poisson_sigma_rho(rate, th).rho for th in thetas])
    sig_i, rho_i = np.array([(s.sigma, s.rho) for s in impairment.sigma_rho_table(thetas)]).T
    width = (CAPACITY - rho_i)[None, :] - rho_a[:, None]
    i1, i2 = np.nonzero(width > 0)
    if not i1.size:
        raise InfeasibleBoundError("no feasible (theta1, theta2, r_a) grid point: the arrival "
                                   "rate is too close to capacity for every theta")
    fracs = np.arange(1, options.r_points + 1) / (options.r_points + 1)
    j1, j2 = i1[:, None], i2[:, None]  # one row of r_a per (theta1, theta2)
    r_a = rho_a[j1] if martingale else rho_a[j1] + width[j1, j2] * fracs
    a_f = np.ones_like(r_a) if martingale else _vb_prefactor(thetas[j1], 0.0, rho_a[j1], r_a)
    a_g = _vb_prefactor(thetas[j2], sig_i[j2], rho_i[j2], CAPACITY - r_a)
    return _Grid(theta1=thetas[i1], theta2=thetas[i2], r_a=r_a, a_f=a_f, a_g=a_g)


class BacklogBound:
    """Per-x optimized tail bound P{B > x} <= evaluate(x).

    evaluate(x) is the minimum of the variant's closed-form tail over the
    whole feasible grid (_build_grid, maybe shared), at its first grid point
    attaining it, as a full kernel pass with argmin gives it. It is the one-x
    call of _evaluate_many, which memoizes each value and index "i" in
    meta["best"] and runs the kernel only on the rows that can still win:
    every value of a row is at least min(1, floor), its floor from
    _floor_terms (on the min-plus kernel, the kernel's term at the row's
    smallest prefactors). The memoized winner of the nearest x below 1, run
    at x, gives ub (1 when there is none); a row whose floor passes ub (1 +
    _REL_SLACK) is dropped, and every point of a kept row runs, so the result
    is the full pass's, index 0 when all values are 1. A cut below the
    smallest normal float keeps every row: the slack covers no rounding there.
    """

    def __init__(self, variant: str, grid: _Grid):
        _form(variant)  # rejects an unknown variant
        self.variant, self._grid = variant, grid
        self.meta = {"grid_points": len(grid), "best": {}}

    @cached_property
    def _floor_terms(self):
        """Terms (c, d) with min(1, exp(max(c - d x))) at most every value of
        the row at x, up to rounding, from the row's smallest prefactors."""
        g = self._grid
        # fmin skips a nan prefactor, whose point cannot win anyway
        row_a_f, row_a_g = (np.fmin.reduce(a, axis=1) for a in (g.a_f, g.a_g))
        with np.errstate(divide="ignore", invalid="ignore"):
            return _FLOORS[_FORMS[self.variant][1]](row_a_f, g.theta1, row_a_g, g.theta2)

    def evaluate(self, x: int) -> float:
        if x < 0:
            raise ValueError("x must be nonnegative")
        best = self.meta["best"]
        if x not in best:
            self._evaluate_many([x])
        return best[x]["value"]

    def _evaluate_many(self, xs):
        """Memoize the minimum and its first index at each x of xs, distinct
        nonnegative integers not memoized yet. A pass takes as many x as keep
        its row floors within _GRID_POINTS_MAX values; a kernel call takes whole
        x, at most one grid of points or one pass's x count, if that is more."""
        g, best, kernel = self._grid, self.meta["best"], _FORMS[self.variant][1]
        rows, n = g.r_a.shape
        step = _GRID_POINTS_MAX // rows  # >= 1, as rows <= theta_points**2
        for s in range(0, len(xs), step):
            chunk = xs[s:s + step]
            xf = np.array(chunk, dtype=float)
            cut = self._upper_bounds(kernel, xf) * (1.0 + _REL_SLACK)
            floor = None  # log floor, one row per x
            for c, d in self._floor_terms:
                term = np.multiply.outer(xf, d)
                term = np.subtract(c, term, out=term)
                floor = term if floor is None else np.maximum(floor, term, out=floor)
            keep = floor <= np.log(np.maximum(cut, _TINY))[:, None]
            keep[cut < _TINY] = True
            counts = np.count_nonzero(keep, axis=1).tolist()
            kept = np.flatnonzero(keep) % rows  # rows kept, x by x
            first = [0, *itertools.accumulate(counts)]  # x j's rows start here
            for j0, j1 in _runs(counts, max(rows, step // n)):
                r = kept[first[j0]:first[j1]]
                # one x goes in as a scalar, which spares a point-sized array
                x = (xf[j0] if j1 - j0 == 1
                     else np.repeat(xf[j0:j1], np.multiply(counts[j0:j1], n)))
                if r.size:
                    vals = kernel(g.a_f[r].ravel(), np.repeat(g.theta1[r], n),
                                  g.a_g[r].ravel(), np.repeat(g.theta2[r], n), x)
                for j in range(j0, j1):
                    lo, hi = (first[j] - first[j0]) * n, (first[j + 1] - first[j0]) * n
                    i, value = 0, 1.0
                    if hi > lo:
                        m = lo + int(np.argmin(vals[lo:hi]))
                        if vals[m] < 1.0:
                            i, value = int(r[m // n]) * n + m % n, float(vals[m])
                    best[chunk[j]] = {"value": value, "i": i}

    def _upper_bounds(self, kernel, xf):
        """ub at each x of xf: the value there of the memoized winner of the
        nearest x evaluated below 1, or 1 when there is none."""
        g = self._grid
        seeds = sorted((y, b["i"]) for y, b in self.meta["best"].items() if b["value"] < 1.0)
        if not seeds:
            return np.ones_like(xf)
        sx, si = (np.array(col) for col in zip(*seeds))
        j = np.searchsorted(sx, xf)
        lo, hi = np.maximum(j - 1, 0), np.minimum(j, sx.size - 1)
        k, c = np.divmod(si[np.where(xf - sx[lo] <= sx[hi] - xf, lo, hi)], g.r_a.shape[1])
        return kernel(g.a_f[k, c], g.theta1[k], g.a_g[k, c], g.theta2[k], xf)

    def spec_at(self, x: int) -> BoundSpec:
        """The grid point achieving the minimum at x."""
        self.evaluate(x)
        return self._grid.spec(self.meta["best"][x]["i"], self.variant)

    def grid_specs(self):
        """All feasible grid points, for audits and cross-checks."""
        return [self._grid.spec(i, self.variant) for i in range(len(self._grid))]


def build_bound(variant: str, arrival: PoissonTraffic, impairment: ImpairmentModel,
                options: GridOptions | None = None) -> BacklogBound:
    """Assemble the per-x optimized bound of one variant.

    arrival must be a PoissonTraffic, of which only the rate is read, or
    ValueError is raised before the impairment is fitted. Raises
    InfeasibleBoundError where stability says not-derivable: every
    envelope rate is at least its mean rate, so no grid point is feasible.
    """
    martingale = _form(variant)[0]  # rejects an unknown variant before any fit
    rate = _poisson_rate(arrival)
    threshold = impairment.sustainable_rate()
    if not rate < threshold:
        raise InfeasibleBoundError(
            f"arrival rate {rate:.4g} >= sustainable rate {threshold:.4g}; "
            "no finite bound exists")
    grid = _build_grid(rate, impairment, options or GridOptions(), martingale)
    return BacklogBound(variant, grid)


def _poisson_rate(arrival: PoissonTraffic) -> float:
    if not isinstance(arrival, PoissonTraffic):  # the one arrival the bounds take
        raise ValueError(f"the bounds take Poisson arrivals, not {type(arrival).__name__}")
    return arrival.rate


def _runs(counts, limit):
    """Split consecutive counts, none above limit, into runs [j0, j1) whose
    sums are at most limit."""
    j0, total = 0, 0
    for j, c in enumerate(counts):
        if total + c > limit:
            yield j0, j
            j0, total = j, 0
        total += c
    yield j0, len(counts)


def _check_p(p: float):
    if not 0.0 < p < 1.0:
        raise ValueError(f"p={p} must lie strictly between 0 and 1")
    if p < _TINY:
        raise ValueError(f"p={p} is below the smallest normal float {_TINY}, "
                         "where the bounds lose their relative precision")


def _search(p: float):
    """The quantile search for p as a generator: it yields each x it needs,
    is sent the bound's value there, and returns the smallest integer x
    with value <= p. It tries x = 0, doubles x until the value crosses p,
    then bisects. Raises InfeasibleBoundError if the value stays above p
    up to X_MAX."""
    _check_p(p)
    if (yield 0) <= p:
        return 0
    lo, hi = 0, 1
    while (yield hi) > p:
        if hi >= X_MAX:
            raise _never_crosses(p)
        lo, hi = hi, min(hi * 2, X_MAX)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (yield mid) <= p:
            hi = mid
        else:
            lo = mid
    return hi


def _never_crosses(p: float) -> InfeasibleBoundError:
    return InfeasibleBoundError(f"bound stays above {p} for all x up to {X_MAX}")


def _lockstep(bound: BacklogBound, p_list) -> dict:
    """{p: quantile, or the error its search raised} for each distinct p of
    p_list. A min-plus point is min(1, e^{c - d x}) with d constant along a
    row: the quantile is max(0, ceil(min over rows of (c - log p)/d)). Else
    the searches run in lockstep, one _evaluate_many call per round."""
    best, out = bound.meta["best"], {}
    if _FORMS[bound.variant][1] is _minplus_vec:
        g = bound._grid
        ((c, d),) = _minplus_floor(g.a_f, g.theta1[:, None], g.a_g, g.theta2[:, None])
        c, d = c.min(axis=1), d[:, 0]
        for p in dict.fromkeys(p_list):
            try:
                _check_p(p)
            except ValueError as e:
                out[p] = e
                continue
            with np.errstate(divide="ignore", invalid="ignore"):  # d underflows at tiny theta
                x = float(np.min(np.where(c > math.log(p), (c - math.log(p)) / d, 0.0)))
            out[p] = math.ceil(x) if x <= X_MAX else _never_crosses(p)
        return out
    searches = {p: _search(p) for p in dict.fromkeys(p_list)}
    values = dict.fromkeys(searches)  # what each search is sent next
    while searches:
        asks = {}
        for p, search in searches.items():
            try:
                asks[p] = search.send(values[p])
            except StopIteration as done:
                out[p] = done.value
            except (ValueError, InfeasibleBoundError) as e:
                out[p] = e
        searches = {p: searches[p] for p in asks}
        bound._evaluate_many(sorted(set(asks.values()) - best.keys()))
        values = {p: best[x]["value"] for p, x in asks.items()}
    return out


def quantile(bound: BacklogBound, p: float) -> int:
    """Smallest integer x with bound.evaluate(x) <= p, the one-p call of
    _lockstep.

    Raises ValueError unless p lies in [sys.float_info.min, 1), and
    InfeasibleBoundError if the bound stays above p up to X_MAX.
    """
    q = _lockstep(bound, [p])[p]
    if isinstance(q, Exception):
        raise q
    return q


def quantile_table(arrival: PoissonTraffic, impairment: ImpairmentModel, p_list,
                   variants=VARIANTS, options: GridOptions | None = None):
    """Rows of {p, variant -> quantile} for each p, as one quantile() call
    per p and variant gives them, raising what the first of those calls
    to fail would. Each arrival tail's variants share the grid of one
    build_bound call and run all their searches in lockstep."""
    p_list = list(p_list)
    tails = {v: _form(v)[0] for v in variants}  # rejects an unknown variant before any fit
    columns = {}
    for tail in sorted(set(tails.values())):
        same = [v for v in variants if tails[v] == tail]
        grid = build_bound(same[0], arrival, impairment, options)._grid
        columns.update((v, _lockstep(BacklogBound(v, grid), p_list)) for v in same)
        del grid  # one grid alive at a time
    for q in (columns[v][p] for p in p_list for v in variants):
        if isinstance(q, Exception):
            raise q
    return [{"p": p, **{v: columns[v][p] for v in variants}} for p in p_list]


def rate_to_mbps(rate_pkts_per_slot: float, params) -> float:
    """packets/slot -> Mbps of payload, one slot being L idle slots. Raises
    ValueError where the Mbps value leaves the float range."""
    L = slot_length(params)
    bits_per_slot_time = params.payload * 8.0
    slot_us = L * params.idle_slot
    mbps = rate_pkts_per_slot * bits_per_slot_time / slot_us
    if not math.isfinite(mbps):
        raise ValueError(f"rate {rate_pkts_per_slot} packets per slot is past the "
                         f"float range in Mbps")
    return mbps


def point_tail_value(spec: BoundSpec, arrival: PoissonTraffic, impairment: ImpairmentModel,
                     x: int, route: str = "direct") -> float:
    """Tail value of a single grid point, assembled from the (sigma, rho)
    pairs at its thetas: a PoissonTraffic arrival's at theta1 (ValueError,
    before any fit, for any other arrival), the impairment's at theta2.

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
    martingale, kernel = _FORMS[spec.variant]
    if martingale:
        raise ValueError("route comparison applies to the general-arrival variants")
    if route not in ("direct", "aggregated"):
        raise ValueError(f"unknown route {route!r}")
    if x < 0:
        raise ValueError("x must be nonnegative")
    prefactors = []
    for sr, r in ((poisson_sigma_rho(_poisson_rate(arrival), spec.theta1), spec.r_a),
                  (impairment.sigma_rho(spec.theta2), spec.r_i)):
        if not r > sr.rho:
            raise ValueError(f"a vb tail needs rate r > rho, got r={r}, rho={sr.rho}")
        if route == "direct":
            prefactors.append(float(_vb_prefactor(sr.theta, sr.sigma, sr.rho, r)))
        else:
            delta = r - sr.rho
            prefactors.append(math.exp(sr.theta * sr.sigma) / -math.expm1(-sr.theta * delta))
    a_f, a_g = prefactors
    return float(kernel(a_f, spec.theta1, a_g, spec.theta2, float(x)))
