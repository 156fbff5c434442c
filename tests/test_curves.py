"""Envelope triples, the vb prefactor of both assembly routes, and the two
composition kernels.

Each composition rule has one closed-form kernel in snc80211.bounds; the
scalar minimiser and the O(x) sums below are the independent reference
oracles it is checked against."""
import math
import sys

import numpy as np
import pytest

import snc80211.bounds as bounds
from snc80211.bounds import (
    _REL_SLACK,
    BoundSpec,
    _indep_vec,
    _minplus_vec,
    _vb_prefactor,
    point_tail_value,
)
from snc80211.characterize import PoissonTraffic, SigmaRho, poisson_sigma_rho


def _minplus_oracle(a1, t1, a2, t2, x) -> float:
    """min over real 0 <= y <= x of a1 e^{-t1 y} + a2 e^{-t2 (x-y)}, clamped
    to [0, 1]: both endpoints plus the stationary point where the two
    derivatives cancel, with zero prefactors taken apart."""
    if a1 == 0.0:
        val = a2 * math.exp(-t2 * x)
    elif a2 == 0.0:
        val = a1 * math.exp(-t1 * x)
    else:
        val = min(a1 + a2 * math.exp(-t2 * x), a1 * math.exp(-t1 * x) + a2)
        ystar = (math.log((t1 * a1) / (t2 * a2)) + t2 * x) / (t1 + t2)
        if 0.0 < ystar < x:
            val = min(val, a1 * math.exp(-t1 * ystar) * (1.0 + t1 / t2))
    return min(1.0, max(0.0, val))


def _clamped(a, t):
    """The tail a e^{-t m} clamped to [0, 1], as a function of m."""
    return lambda m: min(1.0, a * math.exp(-t * m))


def _independent_oracle(a1, t1, a2, t2, x: int) -> float:
    """1 - sum_{k=0..x} (Gbar(k) - Gbar(k-1)) Fbar(x-k) term by term, with
    Fbar = 1 - f, Gbar = 1 - g for the clamped tails and Gbar(-1) = 0."""
    f, g = _clamped(a1, t1), _clamped(a2, t2)
    s = 0.0
    gbar_prev = 0.0
    for k in range(x + 1):
        gbar_k = 1.0 - g(k)
        dg = gbar_k - gbar_prev
        if dg != 0.0:
            s += dg * (1.0 - f(x - k))
        gbar_prev = gbar_k
    return min(1.0, max(0.0, 1.0 - s))


def _direct_sum_oracle(a1, t1, a2, t2, x: int) -> float:
    """The same tail as the sum of its nonnegative terms,
    g(x) + sum_{k=0..x} (g(k-1) - g(k)) f(x-k) for the clamped tails with
    g(-1) = 1, so it keeps its relative precision far below 1."""
    f, g = _clamped(a1, t1), _clamped(a2, t2)
    steps = [1.0 - g(0)] + [g(k - 1) - g(k) for k in range(1, x + 1)]
    return g(x) + sum(step * f(x - k) for k, step in enumerate(steps))


def test_sigma_rho_validation():
    SigmaRho(theta=0.1, sigma=0.0, rho=0.0)
    with pytest.raises(ValueError):
        SigmaRho(theta=0.0, sigma=0.0, rho=0.5)
    with pytest.raises(ValueError):
        SigmaRho(theta=1.0, sigma=-0.1, rho=0.5)
    with pytest.raises(ValueError):
        SigmaRho(theta=1.0, sigma=0.0, rho=-0.5)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("make, args", [
    (SigmaRho, (1.0, NAN, NAN)),
    (SigmaRho, (1.0, INF, 0.5)),
    (SigmaRho, (1.0, 0.0, INF)),
    (SigmaRho, (INF, 0.0, 0.5)),
    (SigmaRho, (NAN, 0.0, 0.5)),
    (BoundSpec, ("bound1", NAN, 1.0, 0.5)),
    (BoundSpec, ("bound1", 1.0, INF, 0.5)),
    (BoundSpec, ("bound1", 1.0, 1.0, NAN)),
    (poisson_sigma_rho, (0.04, INF)),
    (poisson_sigma_rho, (0.04, NAN)),
], ids=lambda v: v.__name__ if callable(v) else ",".join(map(str, v)))
def test_value_types_reject_non_finite(make, args):
    with pytest.raises(ValueError):
        make(*args)


class _Fixed:
    """A process with one (sigma, rho) envelope at every theta."""

    def __init__(self, sigma, rho):
        self.sigma, self.rho = sigma, rho

    def sigma_rho(self, theta):
        return SigmaRho(theta, self.sigma, self.rho)


def _route_prefactors(monkeypatch, route, theta, sigma, rho, delta):
    """The impairment and arrival prefactors that point_tail_value hands to
    the min-plus kernel for the impairment envelope (theta, sigma, rho) at
    rate rho + delta and a rate-0 Poisson arrival, whose envelope is
    (theta, 0, 0), at the rest of the capacity."""
    seen = []
    monkeypatch.setitem(bounds._FORMS, "bound1",
                        (False, lambda *args: seen.append(args) or 0.0))
    spec = BoundSpec("bound1", theta, theta, 1.0 - (rho + delta))
    point_tail_value(spec, PoissonTraffic(0.0), _Fixed(sigma, rho), 5, route=route)
    return seen[0][2], seen[0][0]


def _geometric(theta, delta):
    """The factor 1 / (1 - e^{-theta delta}) that sums per-window tails."""
    return 1.0 / (1.0 - math.exp(-theta * delta))


def test_ta_curve_zero_sigma_gives_unit_prefactor(monkeypatch):
    # sigma = 0 makes the per-window (ta) tail prefactor 1, so the
    # aggregated prefactor is the geometric window sum alone
    a_f, _ = _route_prefactors(monkeypatch, "aggregated", 0.1, 0.0, 0.5, 0.2)
    assert a_f == pytest.approx(_geometric(0.1, 0.2), rel=1e-12)


def test_ta_curve_prefactor_from_burst(monkeypatch):
    a_f, _ = _route_prefactors(monkeypatch, "aggregated", 0.1, 0.077, 0.5, 0.3)
    assert a_f / _geometric(0.1, 0.3) == pytest.approx(math.exp(0.0077), rel=1e-12)
    assert a_f / _geometric(0.1, 0.3) == pytest.approx(1.00773, abs=1e-5)


def test_ta_curve_rejects_rate_below_rho():
    spec = BoundSpec("bound1", 1.0, 1.0, 0.5)
    for route in ("direct", "aggregated"):
        with pytest.raises(ValueError, match="r > rho"):
            point_tail_value(spec, PoissonTraffic(0.0), _Fixed(0.0, 0.6), 5, route=route)


def test_vb_curve_prefactor_formula(monkeypatch):
    expect = math.exp(0.0077) / (1.0 - math.exp(0.1 * (0.924 - 0.95)))
    assert _vb_prefactor(0.1, 0.077, 0.924, 0.95) == pytest.approx(expect, rel=1e-12)
    a_f, a_g = _route_prefactors(monkeypatch, "direct", 0.1, 0.077, 0.924, 0.026)
    assert a_f == pytest.approx(expect, rel=1e-12)
    assert a_g == pytest.approx(_geometric(0.1, 0.05), rel=1e-12)


def test_vb_curve_prefactor_limit_is_one():
    assert _vb_prefactor(1.0, 0.0, 0.0, 1e6) == pytest.approx(1.0, rel=1e-9)


def test_vb_curve_requires_strict_rate():
    # the vb prefactor diverges at r = rho, on either side of the split; at
    # theta = 1 this Poisson arrival's rho is exactly 0.5
    assert poisson_sigma_rho(0.5 / math.expm1(1.0), 1.0).rho == 0.5
    for arrival, impairment in ((PoissonTraffic(0.5 / math.expm1(1.0)), _Fixed(0.0, 0.2)),
                                (PoissonTraffic(0.0), _Fixed(0.0, 0.5))):
        with pytest.raises(ValueError, match="r > rho"):
            point_tail_value(BoundSpec("bound1", 1.0, 1.0, 0.5), arrival, impairment, 5)


def test_ta_to_vb_closed_form(monkeypatch):
    a_f, _ = _route_prefactors(monkeypatch, "aggregated", 0.5, 0.2, 0.3, 0.1)
    expect = math.exp(0.5 * 0.2) / (1.0 - math.exp(-0.5 * 0.1))
    assert a_f == pytest.approx(expect, rel=1e-12)


def test_ta_to_vb_matches_direct_vb_construction(monkeypatch):
    # aggregating per-window tails at rate rho with slack delta must equal
    # the direct vb construction at rate rho + delta
    rng = np.random.default_rng(3)
    for _ in range(50):
        th = float(rng.uniform(0.02, 4.0))
        sigma = float(rng.uniform(0.0, 1.0))
        rho = float(rng.uniform(0.01, 0.45))
        delta = float(rng.uniform(1e-4, 0.5))
        direct = _route_prefactors(monkeypatch, "direct", th, sigma, rho, delta)
        agg = _route_prefactors(monkeypatch, "aggregated", th, sigma, rho, delta)
        assert agg == pytest.approx(direct, rel=1e-12)


def test_ta_to_vb_large_delta_recovers_prefactor(monkeypatch):
    # once e^{-theta delta} is negligible the window sum adds nothing
    assert _vb_prefactor(1.0, 0.4, 0.2, 50.2) == pytest.approx(math.exp(0.4), rel=1e-12)
    a_f, _ = _route_prefactors(monkeypatch, "aggregated", 50.0, 0.4, 0.1, 0.8)
    assert a_f == pytest.approx(math.exp(50.0 * 0.4), rel=1e-12)


def test_ta_to_vb_input_validation():
    # delta = r - rho = 0 would divide by zero in the window sum
    spec = BoundSpec("bound3", 1.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="r > rho"):
        point_tail_value(spec, PoissonTraffic(0.0), _Fixed(0.0, 0.5), 5, route="aggregated")


def test_minplus_symmetric_exponentials():
    for x in (2, 4, 8):
        assert _minplus_vec(1.0, 1.0, 1.0, 1.0, float(x)) == pytest.approx(2.0 * math.exp(-x / 2.0))


def test_minplus_with_zero_bound_returns_other():
    # a service tail that decays at once, g = e^{-t2 x} with t2 = 1e9, is
    # zero past x = 0, and the composition is the arrival tail, clamped;
    # the kernel takes prefactors of at least 1
    for x in (0, 1, 5, 20):
        assert _minplus_vec(1.5, 0.3, 1.0, 1e9, float(x)) == pytest.approx(
            min(1.0, 1.5 * math.exp(-0.3 * x)))


def test_minplus_against_dense_grid():
    x = 4
    ys = np.arange(0.0, x + 1e-9, 1e-4)
    dense = float(np.min(2.0 * np.exp(-ys) + 3.0 * np.exp(-2.0 * (x - ys))))
    assert _minplus_vec(2.0, 1.0, 3.0, 2.0, float(x)) == pytest.approx(min(1.0, dense), abs=1e-6)


def test_minplus_is_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(40):
        a, b = (float(v) for v in rng.uniform(1, 5, 2))
        t1, t2 = (float(v) for v in rng.uniform(0.05, 3, 2))
        for x in (0.0, 1.0, 3.0, 17.0):
            assert abs(_minplus_vec(a, t1, b, t2, x) - _minplus_vec(b, t2, a, t1, x)) <= 1e-12


def test_minplus_rejects_negative_x():
    spec = BoundSpec("bound1", 1.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        point_tail_value(spec, _Fixed(0.0, 0.2), _Fixed(0.0, 0.2), -1)


def test_independent_with_perfect_service_reduces_to_arrival():
    for x in (0, 2, 6):
        f = 0.8 * math.exp(-0.7 * x)
        assert _indep_vec(0.8, 0.7, 0.0, 1.0, float(x)) == pytest.approx(f)
        assert _indep_vec(0.0, 1.0, 0.8, 0.7, float(x)) == pytest.approx(f)
    assert _indep_vec(0.0, 1.0, 0.0, 1.0, 5.0) == 0.0


def test_independent_beats_minplus_deep_in_the_tail():
    # the rate-composition bound degrades the decay to t1*t2/(t1+t2) while
    # the independence-based bound keeps the slower of the two rates
    args = (1.0, 1.0, 1.0, 0.3)
    for x in (20.0, 30.0, 50.0):
        assert _indep_vec(*args, x) < _minplus_vec(*args, x)
    mp = [float(_minplus_vec(*args, x)) for x in (30.0, 50.0)]
    ind = [float(_indep_vec(*args, x)) for x in (30.0, 50.0)]
    assert (math.log(mp[1]) - math.log(mp[0])) / 20.0 == pytest.approx(-0.3 / 1.3, abs=1e-9)
    assert (math.log(ind[1]) - math.log(ind[0])) / 20.0 == pytest.approx(-0.3, abs=1e-3)


def test_independent_nonincreasing_in_x():
    vals = [float(_indep_vec(3.0, 0.4, 1.5, 0.9, float(x))) for x in range(60)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def _kernel_cases():
    """48 (a, t1, b, t2) cases: prefactors 0, in (0, 1), exactly 1 and above
    1 (dead zones), with equal decays among the draws."""
    rng = np.random.default_rng(2024)
    pool = [0.0, 1.0] + list(rng.uniform(0.0, 1.0, 4)) + list(np.exp(rng.uniform(0.0, 7.0, 6)))
    cases = []
    for _ in range(48):
        a, b = (float(rng.choice(pool)) for _ in range(2))
        t1 = float(np.exp(rng.uniform(np.log(0.01), np.log(3.0))))
        t2 = t1 if rng.random() < 0.25 else float(np.exp(rng.uniform(np.log(0.01), np.log(3.0))))
        cases.append((a, t1, b, t2))
    return cases


def _close(got, want):
    return abs(got - want) <= 1e-12 + 1e-9 * abs(want)


def _minplus_cases(cases):
    """The cases the min-plus kernel takes: both prefactors at least 1."""
    return [case for case in cases if case[0] >= 1.0 and case[2] >= 1.0]


def test_kernels_match_scalar_oracles():
    # both kernels run over all their cases at once, the way the bound grid
    # calls them, and once per case with scalars, the way point_tail_value
    # calls them; the independence tail must also keep its relative
    # precision against the direct sum down to where it turns subnormal
    for kernel, oracle, cases in ((_minplus_vec, _minplus_oracle, _minplus_cases(_kernel_cases())),
                                  (_indep_vec, _independent_oracle, _kernel_cases())):
        a, t1, b, t2 = (np.array(col) for col in zip(*cases))
        for x in [*range(201), 400, 800, 1200]:
            vals = kernel(a, t1, b, t2, float(x))
            for j, case in enumerate(cases):
                want = oracle(*case, x)
                for got in (vals[j], kernel(*case, float(x))):
                    assert _close(got, want), (kernel, case, x, got, want)
                if kernel is _indep_vec and (tail := _direct_sum_oracle(*case, x)) >= 1e-300:
                    for got in (vals[j], kernel(*case, float(x))):
                        assert abs(got - tail) <= 1e-9 * tail, (case, x, got, tail)


def test_minplus_line_matches_the_oracle_on_the_grids(impairment):
    # the min-plus kernel is the line min(1, e^{c - d x}) only for prefactors
    # of at least 1, which every grid point has: against the oracle on
    # points sampled from both tails' default grids at three rates, with the
    # unit arrival prefactor and the equal decays of diagonal pairs among them
    rng = np.random.default_rng(15)
    cols = []
    for rate in (0.001, 0.04, 0.0783):
        for martingale in (False, True):
            g = bounds._build_grid(rate, impairment, bounds.GridOptions(), martingale)
            rows, n = g.r_a.shape
            diagonal = np.flatnonzero(g.theta1 == g.theta2) * n
            pick = np.union1d(rng.choice(rows * n, min(rows * n, 500), replace=False), diagonal)
            cols.append((g.a_f.flat[pick], g.theta1[pick // n],
                         g.a_g.flat[pick], g.theta2[pick // n]))
    a, t1, b, t2 = (np.concatenate(col) for col in zip(*cols))
    assert a.size >= 2000 and np.any(a == 1.0) and np.any(t1 == t2)
    assert min(a.min(), b.min()) >= 1.0
    for x in [0, *np.unique(np.geomspace(1, 3000, 60).astype(int)).tolist()]:
        vals = _minplus_vec(a, t1, b, t2, float(x))
        for j in range(a.size):
            want = _minplus_oracle(a[j], t1[j], b[j], t2[j], x)
            assert _close(vals[j], want), (j, x, vals[j], want)


def test_kernels_respect_the_pruning_lower_bound():
    # BacklogBound.evaluate skips every grid point whose max(f(x), g(x))
    # exceeds an attained value by more than its slack, so each kernel must
    # stay at or above min(1, max(f(x), g(x))) up to that slack
    for kernel, cases in ((_minplus_vec, _minplus_cases(_kernel_cases())),
                          (_indep_vec, _kernel_cases())):
        a, t1, b, t2 = (np.array(col) for col in zip(*cases))
        for x in range(201):
            lb = np.minimum(1.0, np.maximum(a * np.exp(-t1 * x), b * np.exp(-t2 * x)))
            vals = kernel(a, t1, b, t2, float(x))
            assert np.all(lb <= vals * (1.0 + _REL_SLACK)), (kernel, x)


def _floor_cases():
    """_kernel_cases() plus 4,000 seeded draws over the grid's theta range,
    a quarter of them with equal decays, with zero, unit, small and large
    prefactors."""
    rng = np.random.default_rng(77)
    m = 4000
    pool = np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, 6), np.exp(rng.uniform(0.0, 12.0, 8))))
    a, b = rng.choice(pool, m), rng.choice(pool, m)
    t1 = np.exp(rng.uniform(np.log(0.01), np.log(5.0), m))
    t2 = np.where(rng.random(m) < 0.25, t1, np.exp(rng.uniform(np.log(0.01), np.log(5.0), m)))
    cases = np.array(_kernel_cases()).T
    return [np.concatenate((col, new)) for col, new in zip(cases, (a, t1, b, t2))]


def test_kernels_respect_their_row_floors():
    # BacklogBound.evaluate drops a grid row whose floor passes an attained
    # value by more than the slack, so each kernel must stay at or above
    # min(1, floor) up to that slack wherever its value is a normal float;
    # a case is a one-point row, so its floor is the point's own, and the
    # min-plus kernel takes the cases with both prefactors at least 1
    cases = _floor_cases()
    for variant, kernel in (("bound1", _minplus_vec), ("bound3", _indep_vec)):
        a, t1, b, t2 = cases
        if kernel is _minplus_vec:
            a, t1, b, t2 = (col[(a >= 1.0) & (b >= 1.0)] for col in cases)
        grid = bounds._Grid(theta1=t1, theta2=t2, r_a=np.full((a.size, 1), 0.5),
                            a_f=a[:, None], a_g=b[:, None])
        terms = bounds.BacklogBound(variant, grid)._floor_terms
        for x in [*range(301), 1000, 3000, 10 ** 4, 3 * 10 ** 4, 10 ** 5]:
            floor = np.exp(np.minimum(0.0, np.max([c - d * x for c, d in terms], axis=0)))
            vals = kernel(a, t1, b, t2, float(x))
            normal = vals >= sys.float_info.min
            assert np.all(floor[normal] * (1.0 - _REL_SLACK) <= vals[normal]), (kernel, x)
