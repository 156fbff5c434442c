"""Envelope triples, the vb prefactor of both assembly routes, and the two
composition kernels.

Each composition rule has one closed-form kernel in snc80211.curves; the
scalar minimiser and the O(x) sums below are the independent reference
oracles it is checked against."""
import math

import numpy as np
import pytest

import snc80211.bounds as bounds
from snc80211.bounds import _REL_SLACK, BoundSpec, point_tail_value
from snc80211.characterize import poisson_sigma_rho
from snc80211.curves import SigmaRho, _indep_vec, _minplus_vec, _vb_prefactor


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
    (BoundSpec, ("bound1", NAN, 1.0, 0.5, 0.5)),
    (BoundSpec, ("bound1", 1.0, INF, 0.5, 0.5)),
    (BoundSpec, ("bound1", 1.0, 1.0, NAN, 0.5)),
    (BoundSpec, ("bound1", 1.0, 1.0, 0.5, NAN)),
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
    """The arrival and impairment prefactors that point_tail_value hands to
    the min-plus kernel for the arrival envelope (theta, sigma, rho) at rate
    rho + delta and the envelope (theta, 0, 0) at the rest of the capacity."""
    seen = []
    monkeypatch.setattr(bounds, "_minplus_vec", lambda *args: seen.append(args) or 0.0)
    spec = BoundSpec("bound1", theta, theta, rho + delta, 1.0 - rho - delta)
    point_tail_value(spec, _Fixed(sigma, rho), _Fixed(0.0, 0.0), 5, route=route)
    return seen[0][0], seen[0][2]


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
    spec = BoundSpec("bound1", 1.0, 1.0, 0.5, 0.5)
    for route in ("direct", "aggregated"):
        with pytest.raises(ValueError, match="r > rho"):
            point_tail_value(spec, _Fixed(0.0, 0.2), _Fixed(0.0, 0.6), 5, route=route)


def test_vb_curve_prefactor_formula(monkeypatch):
    expect = math.exp(0.0077) / (1.0 - math.exp(0.1 * (0.924 - 0.95)))
    assert _vb_prefactor(0.1, 0.077, 0.924, 0.95) == pytest.approx(expect, rel=1e-12)
    a_f, a_g = _route_prefactors(monkeypatch, "direct", 0.1, 0.077, 0.924, 0.026)
    assert a_f == pytest.approx(expect, rel=1e-12)
    assert a_g == pytest.approx(_geometric(0.1, 0.05), rel=1e-12)


def test_vb_curve_prefactor_limit_is_one():
    assert _vb_prefactor(1.0, 0.0, 0.0, 1e6) == pytest.approx(1.0, rel=1e-9)


def test_vb_curve_requires_strict_rate():
    # the vb prefactor diverges at r = rho, on either side of the split
    for sr_a, sr_i in (((0.0, 0.5), (0.0, 0.2)), ((0.0, 0.2), (0.0, 0.5))):
        with pytest.raises(ValueError, match="r > rho"):
            point_tail_value(BoundSpec("bound1", 1.0, 1.0, 0.5, 0.5),
                             _Fixed(*sr_a), _Fixed(*sr_i), 5)


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
    spec = BoundSpec("bound3", 1.0, 1.0, 0.5, 0.5)
    with pytest.raises(ValueError, match="r > rho"):
        point_tail_value(spec, _Fixed(0.0, 0.2), _Fixed(0.0, 0.5), 5, route="aggregated")


def test_minplus_symmetric_exponentials():
    for x in (2, 4, 8):
        assert _minplus_vec(1.0, 1.0, 1.0, 1.0, float(x)) == pytest.approx(2.0 * math.exp(-x / 2.0))


def test_minplus_with_zero_bound_returns_other():
    for x in (0, 1, 5, 20):
        assert _minplus_vec(0.7, 0.3, 0.0, 1.0, float(x)) == pytest.approx(0.7 * math.exp(-0.3 * x))


def test_minplus_against_dense_grid():
    x = 4
    ys = np.arange(0.0, x + 1e-9, 1e-4)
    dense = float(np.min(2.0 * np.exp(-ys) + 3.0 * np.exp(-2.0 * (x - ys))))
    assert _minplus_vec(2.0, 1.0, 3.0, 2.0, float(x)) == pytest.approx(min(1.0, dense), abs=1e-6)


def test_minplus_is_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(40):
        a, b = (float(v) for v in rng.uniform(0, 5, 2))
        t1, t2 = (float(v) for v in rng.uniform(0.05, 3, 2))
        for x in (0.0, 1.0, 3.0, 17.0):
            assert abs(_minplus_vec(a, t1, b, t2, x) - _minplus_vec(b, t2, a, t1, x)) <= 1e-12


def test_minplus_rejects_negative_x():
    spec = BoundSpec("bound1", 1.0, 1.0, 0.5, 0.5)
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


def test_kernels_match_scalar_oracles():
    # both kernels run over all cases at once, the way the bound grid calls
    # them, and once per case with scalars, the way point_tail_value calls
    # them; the independence tail must also keep its relative precision
    # against the direct sum down to where it turns subnormal
    cases = _kernel_cases()
    a, t1, b, t2 = (np.array(col) for col in zip(*cases))
    for x in [*range(201), 400, 800, 1200]:
        mp = _minplus_vec(a, t1, b, t2, float(x))
        ind = _indep_vec(a, t1, b, t2, float(x))
        for j, case in enumerate(cases):
            want_mp = _minplus_oracle(*case, x)
            want_ind = _independent_oracle(*case, x)
            for got, want in ((mp[j], want_mp), (ind[j], want_ind),
                              (_minplus_vec(*case, float(x)), want_mp),
                              (_indep_vec(*case, float(x)), want_ind)):
                assert abs(got - want) <= 1e-12 + 1e-9 * abs(want), (case, x, got, want)
            tail = _direct_sum_oracle(*case, x)
            if tail >= 1e-300:
                for got in (ind[j], _indep_vec(*case, float(x))):
                    assert abs(got - tail) <= 1e-9 * tail, (case, x, got, tail)


def test_kernels_respect_the_pruning_lower_bound():
    # BacklogBound.evaluate skips every grid point whose max(f(x), g(x))
    # exceeds an attained value by more than its slack, so each kernel must
    # stay at or above min(1, max(f(x), g(x))) up to that slack
    a, t1, b, t2 = (np.array(col) for col in zip(*_kernel_cases()))
    for x in range(201):
        lb = np.minimum(1.0, np.maximum(a * np.exp(-t1 * x), b * np.exp(-t2 * x)))
        for kernel in (_minplus_vec, _indep_vec):
            vals = kernel(a, t1, b, t2, float(x))
            assert np.all(lb <= vals * (1.0 + _REL_SLACK)), (kernel, x)
