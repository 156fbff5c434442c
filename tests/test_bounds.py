"""Backlog bound variants, grid optimization, quantiles, and stability."""
import math
import warnings

import numpy as np
import pytest

from snc80211.bounds import (
    BacklogBound,
    BoundSpec,
    GridOptions,
    InfeasibleBoundError,
    _Grid,
    build_bound,
    point_tail_value,
    quantile,
    quantile_table,
    rate_to_mbps,
    stability_check,
)
from snc80211.characterize import PoissonTraffic
from snc80211.curves import SigmaRho, _indep_vec, _minplus_vec, _vb_prefactor

P_LIST = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05)


@pytest.fixture(scope="module")
def arr04():
    return PoissonTraffic(0.04)


@pytest.fixture(scope="module")
def bounds04(arr04, impairment):
    return {v: build_bound(v, arr04, impairment)
            for v in ("bound1", "bound2", "bound3", "bound4")}


def test_grid_options_thetas():
    th = GridOptions().thetas()
    assert len(th) == 40
    assert th[0] == pytest.approx(0.01)
    assert th[-1] == pytest.approx(5.0)
    ratios = th[1:] / th[:-1]
    assert np.allclose(ratios, ratios[0])  # geometric spacing


def test_bound_spec_validation():
    BoundSpec(variant="bound1", theta1=0.1, theta2=0.2, r_a=0.3, r_i=0.7)
    with pytest.raises(ValueError):
        BoundSpec(variant="bound9", theta1=0.1, theta2=0.2, r_a=0.3, r_i=0.7)
    with pytest.raises(ValueError):
        BoundSpec(variant="bound1", theta1=-0.1, theta2=0.2, r_a=0.3, r_i=0.7)
    with pytest.raises(ValueError):
        BoundSpec(variant="bound1", theta1=0.1, theta2=0.2, r_a=0.3, r_i=0.6)


def test_bound_values_shape(bounds04):
    for v, b in bounds04.items():
        vals = [b.evaluate(x) for x in range(0, 41)]
        assert all(0.0 <= y <= 1.0 for y in vals), v
        assert all(b2 <= a2 + 1e-12 for a2, b2 in zip(vals, vals[1:])), v
        assert vals[-1] < vals[0], v


def test_evaluate_negative_x(bounds04):
    with pytest.raises(ValueError):
        bounds04["bound1"].evaluate(-1)


def test_spec_at_and_meta(bounds04):
    b = bounds04["bound1"]
    val = b.evaluate(10)
    spec = b.spec_at(10)
    assert isinstance(spec, BoundSpec)
    assert spec.variant == "bound1"
    assert abs(spec.r_a + spec.r_i - 1.0) <= 1e-9
    assert b.meta["best"][10]["value"] == val
    assert b.meta["grid_points"] > 1000


def _full_pass(bound, x):
    """The exhaustive evaluation that BacklogBound.evaluate prunes: the
    kernel over the whole grid, and the first index of the minimum."""
    g = bound._grid
    kernel = _indep_vec if bound.variant in ("bound3", "bound4") else _minplus_vec
    vals = kernel(g.a_f, g.theta1, g.a_g, g.theta2, float(x))
    i = int(np.argmin(vals))
    return float(vals[i]), g.spec(i, bound.variant)


@pytest.mark.parametrize("rate", [0.02, 0.04, 0.07, 0.075])
def test_pruned_evaluate_matches_full_pass(rate, impairment):
    # quantile searches first, so evaluate sees the order the CLI gives it,
    # then every x up to the 1e-6 quantile; each memoized x, the search's
    # overshoot included, must give the full pass's value bits and point
    arrival = PoissonTraffic(rate)
    for v in ("bound1", "bound2", "bound3", "bound4"):
        b = build_bound(v, arrival, impairment)
        q = [quantile(b, p) for p in P_LIST + (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
        for x in range(q[-1] + 1):
            b.evaluate(x)
        for x, hit in b.meta["best"].items():
            value, spec = _full_pass(b, x)
            assert (hit["value"], b.spec_at(x)) == (value, spec), (rate, v, x)
            assert hit["spec"] == b._grid.spec(hit["i"], v)


def test_pruning_keeps_the_lowest_index_among_ties():
    # rows 1, 3 and 4 are one point, better than rows 0 and 2 at every
    # x > 0, and with no service tail its value is its lower bound f(x), so
    # any overstated lower bound prunes it; row 5 never beats 1
    a_f = np.array([3.0, 2.0, 3.0, 2.0, 2.0, 1.0])
    a_g = np.array([3.0, 0.0, 3.0, 0.0, 0.0, 0.5])
    th = np.array([0.2, 0.3, 0.2, 0.3, 0.3, 1e-3])
    grid = _Grid(theta1=th, theta2=th, r_a=np.full(6, 0.5), a_f=a_f, a_g=a_g)
    for v in ("bound1", "bound3"):
        b = BacklogBound(v, grid)
        # every value is 1 at x = 0 and the full pass's argmin is 0, although
        # only row 5 (lower bound exactly 1) reaches the kernel
        assert b.evaluate(0) == 1.0 and b.meta["best"][0]["i"] == 0
        for x in (60, 20, 40, 30, 25, 12):
            value, spec = _full_pass(b, x)
            assert b.evaluate(x) == value < 1.0, (v, x)
            assert b.meta["best"][x]["i"] == 1 and b.spec_at(x) == spec


def _reference_grid(martingale, arrival, impairment, opts):
    """The grid as a plain row-major loop over the scalar prefactor, with
    rho_a + sigma_a of each point."""
    ref = {k: [] for k in ("theta1", "theta2", "r_a", "a_f", "a_g", "floor")}
    for th1 in opts.thetas():
        sa = arrival.sigma_rho(th1)
        lo = sa.rho + sa.sigma if martingale else sa.rho
        for th2 in opts.thetas():
            si = impairment.sigma_rho(th2)
            width = 1.0 - si.rho - lo
            if width <= 0:
                continue
            for j in range(1, opts.r_points + 1):
                r_a = lo + width * (j / (opts.r_points + 1))
                a_f = 1.0 if martingale else float(_vb_prefactor(th1, sa.sigma, sa.rho, r_a))
                a_g = float(_vb_prefactor(th2, si.sigma, si.rho, 1.0 - r_a))
                for k, v in zip(ref, (th1, th2, r_a, a_f, a_g, sa.rho + sa.sigma)):
                    ref[k].append(v)
    return ref


class _BurstyPoisson(PoissonTraffic):
    """Poisson envelope plus a burst term, so that the martingale tail's
    floor rho + sigma lies above rho."""

    def sigma_rho(self, theta):
        return SigmaRho(theta, 0.01, super().sigma_rho(theta).rho)


def test_grid_specs_are_feasible(impairment):
    # bound2 has the martingale tail: r_a >= rho + sigma, no arrival prefactor
    for arrival in (PoissonTraffic(0.04), PoissonTraffic(0.075), _BurstyPoisson(0.04)):
        for variant in ("bound1", "bound2"):
            bound = build_bound(variant, arrival, impairment)
            grid, martingale = bound._grid, variant == "bound2"
            ref = _reference_grid(martingale, arrival, impairment, GridOptions())
            for k in ("theta1", "theta2", "r_a", "a_f", "a_g"):
                assert np.array_equal(getattr(grid, k), ref[k]), (arrival, variant, k)
            if martingale:
                assert np.all(grid.r_a >= ref["floor"]) and np.all(grid.a_f == 1.0)
            specs = bound.grid_specs()
            assert len(specs) == bound.meta["grid_points"]
            for spec in specs[:50] + specs[-50:]:
                assert spec.r_i > impairment.sigma_rho(spec.theta2).rho


class _Fake:
    def __init__(self, fn):
        self._fn = fn

    def evaluate(self, x):
        return self._fn(x)


def test_quantile_bisection():
    b = _Fake(lambda x: math.exp(-x))
    assert quantile(b, 0.05) == 3      # e^-3 = 0.0498
    assert quantile(b, 0.5) == 1
    assert quantile(_Fake(lambda x: 0.3), 0.5) == 0


def test_quantile_p_validation():
    b = _Fake(lambda x: math.exp(-x))
    for p in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            quantile(b, p)


def test_quantile_never_crosses():
    with pytest.raises(InfeasibleBoundError):
        quantile(_Fake(lambda x: 0.5), 0.1)


def test_quantile_table_poisson_004(arr04, impairment):
    rows = quantile_table(arr04, impairment, P_LIST)
    got = {v: [r[v] for r in rows]
           for v in ("bound1", "bound2", "bound3", "bound4")}
    assert got["bound1"] == [24, 25, 25, 26, 26, 27, 28, 29, 31, 33]
    assert got["bound2"] == [8, 9, 10, 10, 11, 12, 13, 15, 17, 19]
    assert got["bound3"] == [23, 23, 24, 24, 25, 25, 26, 27, 28, 30]
    assert got["bound4"] == [7, 8, 8, 9, 10, 11, 11, 13, 14, 16]
    for r in rows:
        assert r["bound4"] <= r["bound3"] <= r["bound1"]
        assert r["bound4"] <= r["bound2"] <= r["bound1"]


def test_quantile_table_poisson_007(impairment):
    rows = quantile_table(PoissonTraffic(0.07), impairment, P_LIST)
    got = {v: [r[v] for r in rows]
           for v in ("bound1", "bound2", "bound3", "bound4")}
    assert got["bound1"] == [186, 188, 191, 193, 196, 200, 205, 212, 224, 236]
    assert got["bound2"] == [60, 64, 68, 72, 78, 83, 89, 98, 112, 126]
    assert got["bound3"] == [178, 180, 183, 185, 188, 191, 194, 199, 206, 214]
    assert got["bound4"] == [50, 54, 58, 63, 67, 72, 78, 84, 94, 105]
    for r in rows:
        assert r["bound4"] <= r["bound3"] <= r["bound1"]
        assert r["bound4"] <= r["bound2"] <= r["bound1"]


def test_light_load_bound_is_tiny(impairment):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the bound path warns nowhere
        val = build_bound("bound1", PoissonTraffic(0.01), impairment).evaluate(200)
    assert 0.0 <= val < 1e-6


def test_unsustainable_rate_warns_and_fails(impairment):
    # every envelope rate is at least the mean rate, so no grid point can be
    # feasible: build_bound says so before it builds a grid
    with pytest.raises(InfeasibleBoundError,
                       match=r"^arrival rate 0\.0900 >= sustainable rate 0\.0793;"):
        build_bound("bound1", PoissonTraffic(0.09), impairment)


def test_near_threshold_rate_fails_without_warning(impairment):
    # 0.0785 sits below the mean-rate threshold but above every exponential
    # rate the impairment envelope can certify, so the grid is empty
    with pytest.raises(InfeasibleBoundError, match="no feasible"):
        build_bound("bound1", PoissonTraffic(0.0785), impairment)


def test_martingale_variants_need_declared_independence(impairment):
    class NoDeclaration:
        def sigma_rho(self, theta):
            raise AssertionError("should reject before touching curves")

    for v in ("bound2", "bound4"):
        with pytest.raises(ValueError, match="martingale"):
            build_bound(v, NoDeclaration(), impairment)


def test_unknown_variant_rejected(arr04, impairment):
    with pytest.raises(ValueError):
        build_bound("bound5", arr04, impairment)


def test_point_tail_value_routes_agree(bounds04, arr04, impairment):
    for v, x in (("bound1", 10), ("bound3", 23)):
        spec = bounds04[v].spec_at(x)
        direct = point_tail_value(spec, arr04, impairment, x, route="direct")
        agg = point_tail_value(spec, arr04, impairment, x, route="aggregated")
        assert direct == pytest.approx(agg, rel=1e-9)
        assert direct == pytest.approx(bounds04[v].evaluate(x), rel=1e-9)


def test_point_tail_value_validation(bounds04, arr04, impairment):
    spec = bounds04["bound1"].spec_at(5)
    with pytest.raises(ValueError):
        point_tail_value(spec, arr04, impairment, 5, route="sideways")
    mart = BoundSpec(variant="bound2", theta1=0.1, theta2=0.1, r_a=0.5, r_i=0.5)
    with pytest.raises(ValueError):
        point_tail_value(mart, arr04, impairment, 5)
    # r_a = 0.04 lies below rho_a(0.1) = 0.0421: neither tail holds there
    slow = BoundSpec(variant="bound1", theta1=0.1, theta2=0.1, r_a=0.04, r_i=0.96)
    for route in ("direct", "aggregated"):
        with pytest.raises(ValueError, match="r > rho"):
            point_tail_value(slow, arr04, impairment, 5, route=route)
    with pytest.raises(ValueError, match="nonnegative"):
        point_tail_value(spec, arr04, impairment, -1)


def test_stability_check(params):
    rep = stability_check(0.04, params)
    assert rep.verdict == "stable-bound-derivable"
    assert rep.threshold == pytest.approx(0.079295209692, abs=1e-9)
    assert rep.threshold_mbps == pytest.approx(0.208200755704, abs=1e-9)
    assert stability_check(0.081, params).verdict == "not-derivable"
    assert stability_check(0.0, params).verdict == "stable-bound-derivable"
    # exactly at the threshold no finite bound exists: strict inequality
    assert stability_check(rep.threshold, params).verdict == "not-derivable"
    with pytest.raises(ValueError):
        stability_check(-0.01, params)


def test_rate_to_mbps(params):
    # one packet per 39-slot unit: 256*8 bits / 780 us
    assert rate_to_mbps(1.0, params) == pytest.approx(256 * 8 / 780.0, rel=1e-12)
    assert rate_to_mbps(1.0, params) == pytest.approx(
        params.payload * 8 / (39 * params.idle_slot), rel=1e-12)
    assert rate_to_mbps(0.0, params) == 0.0
