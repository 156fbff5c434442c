"""Backlog bound variants, grid optimization and quantiles."""
import dataclasses
import math
import sys
import warnings
import weakref

import numpy as np
import pytest

import snc80211.bounds as bounds_module
from snc80211.bounds import (
    VARIANTS,
    X_MAX,
    BacklogBound,
    BoundSpec,
    GridOptions,
    InfeasibleBoundError,
    _Grid,
    _indep_floor,
    _indep_vec,
    _minplus_term,
    _minplus_vec,
    _vb_prefactor,
    build_bound,
    point_tail_value,
    quantile,
    quantile_table,
    rate_to_mbps,
)
from snc80211.characterize import PoissonTraffic, SigmaRho, poisson_sigma_rho
from snc80211.dcf import ImpairmentModel, stable_rate_threshold

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
    assert BoundSpec(variant="bound1", theta1=0.1, theta2=0.2, r_a=0.3).r_i == 0.7
    with pytest.raises(ValueError):
        BoundSpec(variant="bound9", theta1=0.1, theta2=0.2, r_a=0.3)
    with pytest.raises(ValueError):
        BoundSpec(variant="bound1", theta1=-0.1, theta2=0.2, r_a=0.3)


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
    kernel over every point of the grid, flattened row-major, and the first
    index of the minimum."""
    g = bound._grid
    kernel = _indep_vec if bound.variant in ("bound3", "bound4") else _minplus_vec
    n = g.r_a.shape[1]
    vals = kernel(g.a_f.ravel(), np.repeat(g.theta1, n), g.a_g.ravel(),
                  np.repeat(g.theta2, n), float(x))
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


def test_pruning_keeps_the_lowest_index_among_ties():
    # points 3, 4 and 5 are one point, in two rows of the same pair, better
    # than points 0-2 at every x > 0. Point 3 holds both of its row's
    # smallest prefactors, so its value is its row's floor, and any
    # overstated floor prunes it: with no service tail (a_g = 0) on the
    # independent kernel, with a_f = a_g = 1 on the min-plus kernel, which
    # takes prefactors of at least 1. Point 2 shares a row with 3 but its
    # own floor passes the cut, so it reaches the kernel and loses there;
    # the last row never beats 3.
    grids = {
        "bound1": ([[3.0, 3.0], [3.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
                   [[3.0, 3.0], [3.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
                   [0.2, 0.3, 0.3, 1e-11], [0.2, 0.3, 0.3, 1.0]),
        "bound3": ([[3.0, 3.0], [3.0, 2.0], [2.0, 2.0], [1.0, 1.0]],
                   [[3.0, 3.0], [3.0, 0.0], [0.0, 0.0], [0.5, 0.5]],
                   [0.2, 0.3, 0.3, 1e-3], [0.2, 0.3, 0.3, 1e-3]),
    }
    for v, (a_f, a_g, th1, th2) in grids.items():
        grid = _Grid(theta1=np.array(th1), theta2=np.array(th2), r_a=np.full((4, 2), 0.5),
                     a_f=np.array(a_f), a_g=np.array(a_g))
        b = BacklogBound(v, grid)
        # every value is 1 at x = 0 and the full pass's argmin is 0, although
        # only the last row (floor within the slack of 1) reaches the kernel
        assert b.evaluate(0) == 1.0 and b.meta["best"][0]["i"] == 0
        for x in (60, 20, 40, 30, 25, 12):
            value, spec = _full_pass(b, x)
            assert b.evaluate(x) == value < 1.0, (v, x)
            assert b.meta["best"][x]["i"] == 3 and b.spec_at(x) == spec


def _assert_pruned_matches_full_pass(b, xs):
    for x in xs:
        value, spec = _full_pass(b, x)
        assert b.evaluate(x) == value, (b.variant, x)
        assert b.spec_at(x) == spec, (b.variant, x)


def test_block_pruning_matches_full_pass_on_hand_built_grids():
    # 30 rows of 1 to 4 points each; the few theta values make a pair come
    # back in rows that are not adjacent, and adjacent rows share a pair
    rng = np.random.default_rng(5)
    thetas = np.array([0.05, 0.2, 0.7])
    for _ in range(20):
        pairs = rng.integers(0, 3, size=(30, 2))
        shape = (30, int(rng.integers(1, 5)))
        a_f = np.exp(rng.normal(1.0, 1.5, shape))
        # with no service tail a point's value is its floor on the independent
        # kernel, so the pruning cut has only its slack to spare; the min-plus
        # kernel takes prefactors of at least 1, and its row floor is exact
        a_g = np.where(rng.random(shape) < 0.3, 0.0, np.exp(rng.normal(1.0, 1.5, shape)))
        for v, (f, g) in (("bound1", np.maximum((a_f, a_g), 1.0)), ("bound3", (a_f, a_g))):
            grid = _Grid(theta1=thetas[pairs[:, 0]], theta2=thetas[pairs[:, 1]],
                         r_a=np.full(shape, 0.5), a_f=f, a_g=g)
            terms = BacklogBound(v, grid)._floor_terms
            if v == "bound1":
                # the min-plus row term is exact: the row's smallest c with its
                # d, whose value is the row's smallest at every x
                c, d = _minplus_term(f, grid.theta1[:, None], g, grid.theta2[:, None])
                assert np.array_equal(terms, ((c.min(axis=1), d[:, 0]),))
                ((c_row, d_row),) = terms
                for x in (0, 10, 60):
                    vals = _minplus_vec(f, grid.theta1[:, None], g, grid.theta2[:, None], x)
                    np.testing.assert_allclose(np.exp(np.minimum(c_row - d_row * x, 0.0)),
                                               vals.min(axis=1), rtol=1e-12)
            else:
                # the independent kernel's floor takes the row's smallest prefactors
                with np.errstate(divide="ignore"):
                    assert np.array_equal(terms, _indep_floor(f.min(axis=1), grid.theta1,
                                                              g.min(axis=1), grid.theta2))
            _assert_pruned_matches_full_pass(BacklogBound(v, grid),
                                             rng.permutation(np.arange(0, 120, 3)))


@pytest.mark.parametrize("options", [GridOptions(r_points=1), GridOptions(theta_points=1)])
def test_block_pruning_matches_full_pass_on_thin_grids(options, impairment):
    # r_points=1 makes every row a single point, as the martingale grid's
    # rows always are; theta_points=1 makes the whole grid one row
    arrival = PoissonTraffic(0.04)
    for v in ("bound1", "bound2", "bound3", "bound4"):
        b = build_bound(v, arrival, impairment, options)
        rows, n = b._grid.a_f.shape
        assert n == (1 if v in ("bound2", "bound4") else options.r_points)
        assert rows == 1 or options.theta_points > 1
        q = quantile(b, 1e-3)
        _assert_pruned_matches_full_pass(b, sorted(b.meta["best"]) + list(range(0, q + 2, 7)))


def _reference_grid(martingale, arrival, impairment, opts):
    """The grid as a plain row-major loop over the scalar prefactor: the
    thetas of each feasible pair, and r_a, a_f and a_g of each of its
    points, one list per pair. The martingale tail's one point per pair
    sits at r_a = rho_a + sigma_a, with no arrival prefactor."""
    ref = {k: [] for k in ("theta1", "theta2", "r_a", "a_f", "a_g")}
    for th1 in opts.thetas():
        sa = poisson_sigma_rho(arrival.rate, th1)
        lo = sa.rho + sa.sigma if martingale else sa.rho
        for th2 in opts.thetas():
            si = impairment.sigma_rho(th2)
            width = 1.0 - si.rho - lo
            if width <= 0:
                continue
            ref["theta1"].append(th1)
            ref["theta2"].append(th2)
            row = {k: [] for k in ("r_a", "a_f", "a_g")}
            fracs = [j / (opts.r_points + 1) for j in range(1, opts.r_points + 1)]
            for r_a in [lo] if martingale else [lo + width * f for f in fracs]:
                a_f = 1.0 if martingale else float(_vb_prefactor(th1, sa.sigma, sa.rho, r_a))
                a_g = float(_vb_prefactor(th2, si.sigma, si.rho, 1.0 - r_a))
                for k, v in zip(row, (r_a, a_f, a_g)):
                    row[k].append(v)
            for k, v in row.items():
                ref[k].append(v)
    return ref


class _UnfittedImpairment:
    """An impairment's stability threshold, with no envelope to fit."""

    def __init__(self, impairment):
        self.sustainable_rate = impairment.sustainable_rate

    def sigma_rho(self, theta):
        raise AssertionError("the impairment is fitted")

    def sigma_rho_table(self, thetas):
        raise AssertionError("the impairment is fitted")


def test_grid_specs_are_feasible(impairment):
    # bound2 has the martingale tail: r_a >= rho + sigma, no arrival prefactor,
    # and its grid holds only the end point r_a = rho_a; each grid holds each
    # feasible pair once, its r_a points along the row
    for arrival in (PoissonTraffic(0.04), PoissonTraffic(0.075)):
        for variant in ("bound1", "bound2"):
            bound = build_bound(variant, arrival, impairment)
            grid, martingale = bound._grid, variant == "bound2"
            ref = _reference_grid(martingale, arrival, impairment, GridOptions())
            for k in ("theta1", "theta2", "r_a", "a_f", "a_g"):
                assert np.array_equal(getattr(grid, k), ref[k]), (arrival, variant, k)
            n = 1 if martingale else GridOptions().r_points
            assert grid.r_a.shape == (len(ref["theta1"]), n)
            if martingale:
                rho_a = [poisson_sigma_rho(arrival.rate, th).rho for th in grid.theta1]
                assert np.array_equal(grid.r_a[:, 0], rho_a) and np.all(grid.a_f == 1.0)
            specs = bound.grid_specs()
            assert len(specs) == bound.meta["grid_points"]
            # spec i is column i % n of row i // n
            assert [(s.theta1, s.theta2, s.r_a) for s in specs] == list(zip(
                np.repeat(ref["theta1"], n), np.repeat(ref["theta2"], n), np.ravel(ref["r_a"])))
            for spec in specs[:50] + specs[-50:]:
                assert spec.r_i > impairment.sigma_rho(spec.theta2).rho


def _one_point(a_f, theta, variant="bound3", a_g=0.0):
    # a grid of one point; by default a bound3 point with no service tail,
    # whose value at x is min(1, a_f e^{-theta x}): e^{-x} exactly at
    # a_f = theta = 1 and the constant a_f at theta = 1e-300
    grid = _Grid(theta1=np.array([theta]), theta2=np.array([theta]), r_a=np.array([[0.5]]),
                 a_f=np.array([[a_f]]), a_g=np.array([[a_g]]))
    return BacklogBound(variant, grid)


def test_quantile_bisection():
    b = _one_point(1.0, 1.0)
    assert [b.evaluate(x) for x in range(4)] == [math.exp(-x) for x in range(4)]
    assert quantile(b, 0.05) == 3      # e^-3 = 0.0498
    assert quantile(b, 0.5) == 1
    assert quantile(_one_point(0.3, 1e-300), 0.5) == 0


def test_quantile_p_validation():
    for b in (_one_point(1.0, 1.0), _one_point(1.0, 1.0, "bound1", 1.0)):
        for p in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                quantile(b, p)


def test_quantile_never_crosses():
    # at theta = 1e-300 the min-plus decay theta1 theta2/(theta1 + theta2)
    # underflows to 0, and every value stays at 1, which no p reaches
    bounds = [_one_point(0.5, 1e-300)]
    bounds += [_one_point(1.0, 1e-300, v, 1.0) for v in ("bound1", "bound2")]
    for b in bounds:
        with pytest.raises(InfeasibleBoundError,
                           match=f"^bound stays above 0.1 for all x up to {X_MAX}$"):
            quantile(b, 0.1)
    for b in bounds[1:]:
        assert b.evaluate(X_MAX) == 1.0


@pytest.mark.parametrize("rate", [0.001, 0.02, 0.07, 0.0783])
def test_quantile_is_the_smallest_crossing(rate, monkeypatch, impairment):
    # the closed form (bound1, bound2) and the search (bound3, bound4) must
    # return the smallest x with value <= p, which a linear scan of evaluate
    # from 0 finds; one batched pass memoizes the scanned x first
    arrival, p_list = PoissonTraffic(rate), P_LIST + (1e-3, 1e-6)
    for v in VARIANTS:
        b = build_bound(v, arrival, impairment)
        got = [quantile(b, p) for p in p_list]
        b._evaluate_many([x for x in range(max(got) + 1) if x not in b.meta["best"]])
        for p, q in zip(p_list, got):
            x = 0
            while b.evaluate(x) > p:
                x += 1
            assert q == x, (v, p)
    # only the independent variants search, and only their quantiles evaluate
    calls, search, evaluate_many = [], bounds_module._search, BacklogBound._evaluate_many
    monkeypatch.setattr(bounds_module, "_search",
                        lambda p: calls.append("_search") or search(p))
    monkeypatch.setattr(BacklogBound, "_evaluate_many",
                        lambda self, xs: calls.append("_evaluate_many") or evaluate_many(self, xs))
    for v in VARIANTS:
        calls.clear()
        quantile_table(arrival, impairment, p_list, variants=(v,))
        quantile(build_bound(v, arrival, impairment), 0.5)
        searched = v in ("bound3", "bound4")
        assert set(calls) == ({"_search", "_evaluate_many"} if searched else set()), v


@pytest.mark.parametrize("variant", VARIANTS)
def test_one_pass_memoizes_what_x_by_x_does(variant, impairment):
    # at rate 0.0783 the martingale grid has one point and the general grid
    # one row, so a pass takes many x at once: the memo must not depend on it
    arrival, xs = PoissonTraffic(0.0783), list(range(0, 6000, 7))
    one, each = (build_bound(variant, arrival, impairment) for _ in range(2))
    assert one._grid.r_a.shape[0] == 1
    one._evaluate_many(xs)
    for x in xs:
        each.evaluate(x)
    assert one.meta["best"] == each.meta["best"]
    assert {b["value"] < 1.0 for b in one.meta["best"].values()} == {True, False}


# quantile tables at the benchmark's bound rates, for P_LIST + DEEP_P:
# bound1, bound2, bound3 and bound4 per rate
DEEP_P = (1e-3, 1e-6, 1e-9)
PINNED_TABLES = {
    0.02: ([11, 11, 11, 11, 12, 12, 12, 13, 14, 15, 21, 31, 41],
           [4, 4, 4, 5, 5, 5, 6, 7, 8, 9, 15, 25, 35],
           [10, 10, 11, 11, 11, 11, 12, 12, 13, 14, 17, 23, 29],
           [3, 4, 4, 4, 5, 5, 5, 6, 7, 8, 11, 17, 23]),
    0.03: ([16, 16, 16, 17, 17, 18, 18, 19, 21, 22, 31, 46, 60],
           [5, 6, 6, 7, 7, 8, 9, 10, 11, 13, 22, 37, 52],
           [15, 15, 16, 16, 16, 17, 17, 18, 19, 20, 25, 33, 41],
           [5, 5, 6, 6, 7, 7, 8, 9, 10, 11, 16, 25, 33]),
    0.04: ([24, 25, 25, 26, 26, 27, 28, 29, 31, 33, 46, 66, 86],
           [8, 9, 10, 10, 11, 12, 13, 14, 17, 19, 31, 52, 73],
           [23, 23, 24, 24, 25, 25, 26, 27, 28, 30, 37, 49, 60],
           [7, 8, 8, 9, 10, 10, 11, 13, 14, 16, 23, 35, 46]),
    0.05: ([39, 39, 40, 41, 42, 43, 44, 46, 49, 53, 70, 101, 131],
           [13, 14, 15, 16, 17, 19, 20, 23, 26, 30, 48, 79, 109],
           [37, 38, 38, 39, 40, 40, 41, 43, 45, 47, 58, 74, 90],
           [10, 12, 13, 14, 15, 16, 18, 19, 22, 24, 36, 54, 70]),
    0.06: ([71, 72, 73, 74, 76, 77, 80, 83, 88, 93, 123, 176, 226],
           [24, 25, 27, 29, 31, 33, 36, 40, 46, 51, 83, 133, 183],
           [68, 69, 70, 71, 72, 73, 75, 77, 80, 84, 101, 130, 159],
           [19, 21, 23, 25, 27, 29, 31, 34, 38, 42, 62, 93, 120]),
    0.07: ([186, 188, 191, 193, 196, 200, 205, 212, 224, 236, 302, 419, 536],
           [60, 64, 68, 72, 78, 83, 89, 98, 112, 126, 195, 316, 436],
           [178, 180, 183, 185, 188, 191, 194, 199, 206, 214, 252, 317, 381],
           [50, 54, 58, 62, 67, 72, 78, 84, 94, 105, 149, 218, 282]),
    0.075: ([496, 501, 506, 512, 519, 527, 538, 553, 579, 605, 753, 1013, 1273],
            [154, 164, 174, 185, 198, 210, 225, 245, 277, 308, 470, 736, 1003],
            [475, 481, 486, 492, 498, 505, 513, 524, 540, 557, 642, 786, 927],
            [129, 140, 151, 161, 172, 185, 196, 212, 237, 260, 365, 521, 662]),
}


@pytest.mark.parametrize("rate", sorted(PINNED_TABLES))
def test_quantile_table_poisson(rate, impairment):
    # any change to the bound layer that moves a quantile fails here; a
    # change that provably tightens a bound re-pins the table
    rows = quantile_table(PoissonTraffic(rate), impairment, P_LIST + DEEP_P)
    got = tuple([r[v] for r in rows] for v in VARIANTS)
    assert got == PINNED_TABLES[rate]
    for r in rows:
        assert r["bound4"] <= r["bound3"] <= r["bound1"]
        assert r["bound4"] <= r["bound2"] <= r["bound1"]


@pytest.mark.parametrize("rate", [0.02, 0.075])
def test_quantile_table_shares_grids_correctly(rate, impairment):
    # the table builds one grid and lends it to every variant; in either
    # order, each column must equal the quantiles of that variant's own bound
    arrival, p_list = PoissonTraffic(rate), P_LIST + DEEP_P
    own = {v: [quantile(build_bound(v, arrival, impairment), p) for p in p_list]
           for v in VARIANTS}
    for variants in (VARIANTS, VARIANTS[::-1]):
        rows = quantile_table(arrival, impairment, p_list, variants=variants)
        assert {v: [r[v] for r in rows] for v in variants} == own


def test_light_load_bound_is_tiny(impairment):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the bound path warns nowhere
        val = build_bound("bound1", PoissonTraffic(0.01), impairment).evaluate(200)
    assert 0.0 <= val < 1e-6


def test_unsustainable_rate_warns_and_fails(impairment):
    # every envelope rate is at least the mean rate, so no grid point can be
    # feasible: build_bound says so before it builds a grid
    with pytest.raises(InfeasibleBoundError,
                       match=r"^arrival rate 0\.09 >= sustainable rate 0\.0793;"):
        build_bound("bound1", PoissonTraffic(0.09), impairment)


def test_near_threshold_rate_fails_without_warning(impairment):
    # 0.0785 sits below the mean-rate threshold but above every exponential
    # rate the impairment envelope can certify, so the grid is empty
    with pytest.raises(InfeasibleBoundError, match="no feasible"):
        build_bound("bound1", PoissonTraffic(0.0785), impairment)


def test_bounds_refuse_non_poisson_arrivals(impairment):
    class NotPoisson:
        def sigma_rho(self, theta):
            raise AssertionError("should reject before touching curves")

    unfitted = _UnfittedImpairment(impairment)
    for v in VARIANTS:
        with pytest.raises(ValueError, match="^the bounds take Poisson arrivals, not NotPoisson$"):
            build_bound(v, NotPoisson(), unfitted)
    for variants in (VARIANTS, ("bound4",)):
        with pytest.raises(ValueError, match="Poisson arrivals"):
            quantile_table(NotPoisson(), unfitted, [0.5], variants=variants)
    with pytest.raises(ValueError, match="^the bounds take Poisson arrivals, not NotPoisson$"):
        point_tail_value(BoundSpec("bound1", 0.1, 0.1, 0.5), NotPoisson(), unfitted, 5)


@pytest.mark.parametrize("variants", [VARIANTS, VARIANTS[::-1], *((v,) for v in VARIANTS)])
def test_quantile_table_builds_one_grid(variants, monkeypatch, arr04, impairment):
    # one build_bound call per arrival tail builds that tail's grid, which
    # both of its variants' bounds hold; the general tail's grid goes first,
    # and it is freed before the martingale tail's grid is built
    # builds: (martingale, weakref to the grid, grids alive when it was built);
    # bounds: (variant, index of the build whose grid the bound holds)
    builds, bounds = [], []
    build_grid, lockstep = bounds_module._build_grid, bounds_module._lockstep

    def recording_build(*args):
        alive = sum(ref() is not None for _, ref, _ in builds)
        grid = build_grid(*args)
        builds.append((args[-1], weakref.ref(grid), alive))
        return grid

    def recording_lockstep(bound, p_list):
        index = next(i for i, (_, ref, _) in enumerate(builds) if ref() is bound._grid)
        bounds.append((bound.variant, index))
        return lockstep(bound, p_list)

    monkeypatch.setattr(bounds_module, "_build_grid", recording_build)
    monkeypatch.setattr(bounds_module, "_lockstep", recording_lockstep)
    quantile_table(arr04, impairment, [0.5, 1e-3], variants=variants)
    tails = sorted({v in ("bound2", "bound4") for v in variants})
    assert [(m, alive) for m, _, alive in builds] == [(m, 0) for m in tails]
    assert sorted(v for v, _ in bounds) == sorted(variants)
    for v, index in bounds:
        assert builds[index][0] == (v in ("bound2", "bound4")), v


@pytest.mark.parametrize("rate", [0.001, 0.04, 0.07, 0.078])
def test_martingale_end_point_is_each_rows_optimum(rate, impairment):
    # the martingale grid's one point per row, r_a = rho_a, against the grid
    # the martingale variants searched before: the general grid's interior
    # r_a with a unit arrival prefactor. a_g grows with r_a and both kernels
    # grow with each prefactor, so the end point is each row's best point
    # at every x, and no quantile of the martingale variants can rise
    opts = GridOptions()
    new = bounds_module._build_grid(rate, impairment, opts, True)
    general = bounds_module._build_grid(rate, impairment, opts, False)
    old = dataclasses.replace(general, a_f=np.ones_like(general.a_f))
    # the rows pair up one to one, in the same order
    assert np.array_equal(new.theta1, old.theta1) and np.array_equal(new.theta2, old.theta2)
    assert new.r_a.shape == (old.r_a.shape[0], 1) and old.r_a.shape[1] == opts.r_points
    assert np.all(new.r_a < old.r_a[:, :1])
    n = opts.r_points
    for v in ("bound2", "bound4"):
        kernel = bounds_module._FORMS[v][1]
        q = quantile(BacklogBound(v, old), 1e-9)
        for x in np.unique(np.geomspace(1, q, 30).astype(int)).tolist() + [0]:
            at_end = kernel(new.a_f[:, 0], new.theta1, new.a_g[:, 0], new.theta2, float(x))
            interior = kernel(old.a_f.ravel(), np.repeat(old.theta1, n), old.a_g.ravel(),
                              np.repeat(old.theta2, n), float(x)).reshape(-1, n)
            assert np.all(at_end <= interior.min(axis=1)), (v, x)
        p_list = P_LIST + DEEP_P
        new_q = [quantile(BacklogBound(v, new), p) for p in p_list]
        old_q = [quantile(BacklogBound(v, old), p) for p in p_list]
        assert all(a <= b for a, b in zip(new_q, old_q)), (v, new_q, old_q)


def test_unknown_variant_rejected(arr04, impairment):
    with pytest.raises(ValueError, match="unknown variant"):
        build_bound("bound5", arr04, impairment)
    # every variant is checked before the shared grid is built, so an
    # unknown one is refused before the impairment is fitted
    for model in (impairment, _UnfittedImpairment(impairment)):
        with pytest.raises(ValueError, match="unknown variant 'bogus'"):
            quantile_table(arr04, model, [0.5], variants=("bound1", "bogus"))


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
    mart = BoundSpec(variant="bound2", theta1=0.1, theta2=0.1, r_a=0.5)
    with pytest.raises(ValueError):
        point_tail_value(mart, arr04, impairment, 5)
    # r_a = 0.04 lies below rho_a(0.1) = 0.0421: neither tail holds there
    slow = BoundSpec(variant="bound1", theta1=0.1, theta2=0.1, r_a=0.04)
    for route in ("direct", "aggregated"):
        with pytest.raises(ValueError, match="r > rho"):
            point_tail_value(slow, arr04, impairment, 5, route=route)
    with pytest.raises(ValueError, match="nonnegative"):
        point_tail_value(spec, arr04, impairment, -1)


def test_stability_check(params, fixed_point, impairment):
    # the stability verdict is rate < stable_rate_threshold; build_bound
    # must agree with it: a bound is derivable exactly below the threshold
    threshold = stable_rate_threshold(fixed_point)
    assert threshold == pytest.approx(0.079295209692, abs=1e-9)
    assert rate_to_mbps(threshold, params) == pytest.approx(0.208200755704, abs=1e-9)
    for rate in (0.04, 0.0):
        assert rate < threshold
        build_bound("bound1", PoissonTraffic(rate), impairment)
    assert not 0.081 < threshold
    with pytest.raises(InfeasibleBoundError):
        build_bound("bound1", PoissonTraffic(0.081), impairment)
    # exactly at the threshold no finite bound exists: strict inequality
    with pytest.raises(InfeasibleBoundError, match="no finite bound"):
        build_bound("bound1", PoissonTraffic(threshold), impairment)
    with pytest.raises(ValueError):
        PoissonTraffic(-0.01)


def test_build_bound_uses_the_stability_threshold(fixed_point, impairment):
    # 1 - (1 - threshold) rounds to this float, one below the threshold:
    # stability calls it derivable, so the grid is what fails here
    threshold, rate = stable_rate_threshold(fixed_point), 0.0792952096919044
    assert rate < threshold and 1.0 - (1.0 - impairment.sustainable_rate()) == rate
    assert impairment.sustainable_rate() == threshold
    with pytest.raises(InfeasibleBoundError, match="^no feasible"):
        build_bound("bound1", PoissonTraffic(rate), impairment)
    with pytest.raises(InfeasibleBoundError, match="no finite bound"):
        build_bound("bound1", PoissonTraffic(threshold), impairment)


def test_rate_to_mbps(params):
    # one packet per 39-slot unit: 256*8 bits / 780 us
    assert rate_to_mbps(1.0, params) == pytest.approx(256 * 8 / 780.0, rel=1e-12)
    assert rate_to_mbps(1.0, params) == pytest.approx(
        params.payload * 8 / (39 * params.idle_slot), rel=1e-12)
    assert rate_to_mbps(0.0, params) == 0.0


def _sequential_table(arrival, impairment, p_list, variants=VARIANTS, options=None):
    """The table as one quantile() call per p and variant, p by p, on
    freshly built bounds."""
    bounds = {v: build_bound(v, arrival, impairment, options) for v in variants}
    return [{"p": p, **{v: quantile(bounds[v], p) for v in variants}} for p in p_list]


@pytest.mark.parametrize("rate", [0.001, 0.02, 0.07, 0.0783])
def test_lockstep_table_matches_one_search_per_p(rate, impairment):
    # unsorted, with repeats, and down to the smallest p the bounds take
    p_list = (0.05, 0.9, 1e-12, 0.5, 0.05, 1e-300, 1e-3, 0.5, 0.2, 1e-6)
    arrival = PoissonTraffic(rate)
    assert (quantile_table(arrival, impairment, p_list)
            == _sequential_table(arrival, impairment, p_list))


def test_invalid_p_is_refused_before_any_fit(monkeypatch, params):
    # every p is checked before a grid is built, so no theta is fitted and a
    # rate past the threshold is not reached
    model = ImpairmentModel(params)

    def unfitted(thetas):
        raise AssertionError(f"fitted thetas {thetas[:3]}...")

    monkeypatch.setattr(model, "sigma_rho_table", unfitted)
    for p_list, err in (([0.5, 2.0], "p=2.0 must lie strictly between 0 and 1"),
                        ([1e-300, 0.0], "p=0.0 must lie strictly between 0 and 1"),
                        ([0.5, 5e-324], "p=5e-324 is below the smallest normal float")):
        with pytest.raises(ValueError, match=f"^{err}"):
            quantile_table(PoissonTraffic(0.04), model, p_list)
        with pytest.raises(ValueError, match=f"^{err}"):
            quantile_table(PoissonTraffic(0.5), model, p_list)  # past the threshold


class _FlatImpairment:
    """An impairment envelope with rho = 1/2 and no burst at every theta."""

    def sigma_rho(self, theta):
        return SigmaRho(theta, 0.0, 0.5)

    def sigma_rho_table(self, thetas):
        return list(map(self.sigma_rho, thetas))

    def sustainable_rate(self):
        return 0.5


def test_lockstep_table_raises_for_the_first_p_a_search_per_p_would():
    # at theta = 5e-5 the tails decay so slowly that bound1 stays above 1e-6
    # up to X_MAX while bound3 crosses it, and both stay above 1e-12; a
    # p-by-p loop with bound3 first fails on bound1 at 1e-6, before it
    # reaches 1e-12, where bound3 fails
    arrival, impairment = PoissonTraffic(0.04), _FlatImpairment()
    options = GridOptions(theta_points=1, theta_min=5e-5, theta_max=5e-5, r_points=3)
    variants = ("bound3", "bound1")
    b3 = build_bound("bound3", arrival, impairment, options)
    assert quantile(b3, 1e-6) < X_MAX
    for p_list, first in (((0.5, 1e-6, 1e-12), 1e-6), ((1e-12, 0.5, 1e-6), 1e-12),
                          ((0.5, 0.5, 1e-6), 1e-6)):
        with pytest.raises(InfeasibleBoundError) as seq:
            _sequential_table(arrival, impairment, p_list, variants, options)
        with pytest.raises(InfeasibleBoundError) as lock:
            quantile_table(arrival, impairment, p_list, variants, options)
        assert str(lock.value) == str(seq.value) == (
            f"bound stays above {first} for all x up to {X_MAX}")


def test_evaluate_matches_full_pass_where_values_underflow(impairment):
    # past q(1e-300) = 513 the minimum reaches 0; a cut below the smallest
    # normal float keeps every row, so the winner is still the full pass's
    # first 0 (a relative cut once kept a later 0 at x = 625 and 731-733)
    b = build_bound("bound3", PoissonTraffic(0.02), impairment)
    assert quantile(b, 1e-300) == 513
    _assert_pruned_matches_full_pass(b, [*range(513, 760, 8), 625, 731, 732, 733])
    assert b.evaluate(625) == 0.0


def test_p_below_the_smallest_normal_float_is_refused(bounds04, arr04, impairment):
    for p in (5e-324, sys.float_info.min / 2):
        with pytest.raises(ValueError, match="below the smallest normal float"):
            quantile(bounds04["bound1"], p)
        with pytest.raises(ValueError, match=f"^p={p} is below"):
            quantile_table(arr04, impairment, [0.5, p])
    assert quantile(bounds04["bound1"], sys.float_info.min) > 0


def _record_kernel_sizes(monkeypatch):
    """Wrap both kernels, in _FORMS and under their module names (which the
    bound layer's min-plus checks read), so that each records the points of
    every call in one list."""
    sizes = []
    for kernel in (_minplus_vec, _indep_vec):
        def wrapped(*args, _kernel=kernel):
            sizes.append(np.broadcast(*args).size)
            return _kernel(*args)
        monkeypatch.setattr(bounds_module, kernel.__name__, wrapped)
        for v, (martingale, k) in list(bounds_module._FORMS.items()):
            if k is kernel:
                monkeypatch.setitem(bounds_module._FORMS, v, (martingale, wrapped))
    return sizes


@pytest.mark.parametrize("options", [GridOptions(), GridOptions(theta_points=3, r_points=2),
                                     GridOptions(theta_points=2, r_points=1),
                                     GridOptions(theta_points=1, r_points=1)])
def test_no_kernel_call_takes_more_points_than_the_grid(options, monkeypatch, impairment):
    # many p in one round: their x share floor passes and kernel calls, up
    # to one grid's worth of points per call, or one pass's x count
    # (_GRID_POINTS_MAX // rows) on a grid small enough to have fewer points
    arrival = PoissonTraffic(0.04)
    p_list = [10.0 ** -k for k in range(1, 40)] + [0.9, 0.7, 0.5, 0.3]
    caps = {}
    for v in VARIANTS:
        b = build_bound(v, arrival, impairment, options)
        caps[v] = max(len(b._grid), bounds_module._GRID_POINTS_MAX // b._grid.r_a.shape[0])
    want = quantile_table(arrival, impairment, p_list, options=options)
    sizes = _record_kernel_sizes(monkeypatch)
    for v in VARIANTS:
        sizes.clear()  # one variant's calls at a time
        assert (quantile_table(arrival, impairment, p_list, variants=(v,), options=options)
                == [{"p": row["p"], v: row[v]} for row in want])
        # every value underflows at these two x, so each keeps every row:
        # they share a floor pass, and a kernel call only within the cap
        b = build_bound(v, arrival, impairment, options)
        quantile(b, 0.5)
        b._evaluate_many([X_MAX - 1, X_MAX])
        assert b.meta["best"][X_MAX]["value"] == 0.0
        assert sizes and max(sizes) <= caps[v], (v, max(sizes), caps[v])
