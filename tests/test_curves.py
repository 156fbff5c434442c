"""Curve algebra: constructions, conversions, and the two convolutions.

The convolutions have one closed-form implementation each in
snc80211.curves; the scalar minimiser and the O(x) loop below are the
independent reference oracles they are checked against."""
import math

import numpy as np
import pytest

from snc80211.curves import (
    BoundingFunction,
    CurveWithBound,
    SigmaRho,
    _indep_vec,
    _minplus_vec,
    independent_tail_convolve,
    minplus_convolve,
    ta_curve_from_sigma_rho,
    ta_to_vb,
    vb_curve_from_sigma_rho,
    vb_curve_martingale,
)


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


def _independent_oracle(f: BoundingFunction, g: BoundingFunction, x: int) -> float:
    """1 - sum_{k=0..x} (Gbar(k) - Gbar(k-1)) Fbar(x-k) term by term, with
    Fbar = max(0, 1 - f), Gbar likewise and Gbar(-1) = 0."""
    s = 0.0
    gbar_prev = 0.0
    for k in range(x + 1):
        gbar_k = max(0.0, 1.0 - g.raw(k))
        dg = gbar_k - gbar_prev
        if dg != 0.0:
            s += dg * max(0.0, 1.0 - f.raw(x - k))
        gbar_prev = gbar_k
    return min(1.0, max(0.0, 1.0 - s))


def test_sigma_rho_validation():
    SigmaRho(theta=0.1, sigma=0.0, rho=0.0)
    with pytest.raises(ValueError):
        SigmaRho(theta=0.0, sigma=0.0, rho=0.5)
    with pytest.raises(ValueError):
        SigmaRho(theta=1.0, sigma=-0.1, rho=0.5)
    with pytest.raises(ValueError):
        SigmaRho(theta=1.0, sigma=0.0, rho=-0.5)


def test_bounding_function_exponential_eval():
    f = BoundingFunction.exponential(2.0, 0.5)
    assert f.raw(0) == 2.0
    assert f.evaluate(0) == 1.0  # clamped
    assert f.evaluate(10) == pytest.approx(2.0 * math.exp(-5.0))
    with pytest.raises(ValueError):
        f.raw(-1)
    with pytest.raises(ValueError):
        BoundingFunction.exponential(-1.0, 1.0)
    with pytest.raises(ValueError):
        BoundingFunction.exponential(1.0, 0.0)


def test_bounding_function_eval_in_unit_interval_and_nonincreasing():
    for a, th in [(0.5, 0.1), (1.0, 1.0), (7.3, 0.03), (120.0, 2.0)]:
        f = BoundingFunction.exponential(a, th)
        prev = 1.0
        for x in range(0, 400):
            v = f.evaluate(x)
            assert 0.0 <= v <= 1.0
            assert v <= prev + 1e-15
            prev = v


def test_curve_with_bound_validation():
    b = BoundingFunction.exponential(1.0, 1.0)
    c = CurveWithBound(rate=0.5, bound=b, kind="ta-arrival")
    assert c.curve(4) == 2.0
    with pytest.raises(ValueError):
        CurveWithBound(rate=0.5, bound=b, kind="nonsense")
    with pytest.raises(ValueError):
        CurveWithBound(rate=-1.0, bound=b, kind="ta-arrival")


def test_ta_curve_zero_sigma_gives_unit_prefactor():
    c = ta_curve_from_sigma_rho(SigmaRho(0.1, 0.0, 0.5), 0.5)
    assert c.kind == "ta-arrival"
    assert c.rate == 0.5
    assert c.bound.prefactor == pytest.approx(1.0)
    assert c.bound.decay == 0.1


def test_ta_curve_prefactor_from_burst():
    c = ta_curve_from_sigma_rho(SigmaRho(0.1, 0.077, 0.924), 0.924)
    assert c.bound.prefactor == pytest.approx(math.exp(0.0077))
    assert c.bound.prefactor == pytest.approx(1.00773, abs=1e-5)


def test_ta_curve_rejects_rate_below_rho():
    with pytest.raises(ValueError):
        ta_curve_from_sigma_rho(SigmaRho(1.0, 2.0, 1.0), 0.5)


def test_vb_curve_prefactor_formula():
    sr = SigmaRho(0.1, 0.077, 0.924)
    c = vb_curve_from_sigma_rho(sr, 0.95)
    expect = math.exp(0.0077) / (1.0 - math.exp(0.1 * (0.924 - 0.95)))
    assert c.kind == "vb-arrival"
    assert c.bound.prefactor == pytest.approx(expect, rel=1e-12)
    assert c.bound.decay == 0.1


def test_vb_curve_prefactor_limit_is_one():
    c = vb_curve_from_sigma_rho(SigmaRho(1.0, 0.0, 0.0), 1e6)
    assert c.bound.prefactor == pytest.approx(1.0, rel=1e-9)


def test_vb_curve_requires_strict_rate():
    with pytest.raises(ValueError):
        vb_curve_from_sigma_rho(SigmaRho(0.1, 0.0, 0.5), 0.5)


def test_martingale_curve_is_prefactor_free():
    # Poisson-style envelope: sigma 0, rho = 0.04 (e - 1)
    rho = 0.04 * (math.e - 1.0)
    c = vb_curve_martingale(SigmaRho(1.0, 0.0, rho), rho)
    assert c.bound.prefactor == 1.0
    assert c.bound.decay == 1.0
    assert c.bound.evaluate(3) == pytest.approx(math.exp(-3.0))


def test_martingale_curve_boundary_and_rejection():
    sr = SigmaRho(1.0, 0.2, 0.3)
    c = vb_curve_martingale(sr, 0.5)  # r = rho + sigma exactly
    assert c.rate == 0.5
    with pytest.raises(ValueError):
        vb_curve_martingale(sr, 0.49)
    # a source with rho + sigma above capacity still constructs fine; the
    # caller is the one who cannot build a service curve from it
    big = vb_curve_martingale(SigmaRho(1.0, 0.3, 0.8), 1.2)
    assert big.bound.prefactor == 1.0


def test_ta_to_vb_closed_form():
    ta = ta_curve_from_sigma_rho(SigmaRho(0.5, 0.2, 0.3), 0.3)
    vb = ta_to_vb(ta, 0.1)
    assert vb.kind == "vb-arrival"
    assert vb.rate == pytest.approx(0.4)
    expect = math.exp(0.5 * 0.2) / (1.0 - math.exp(-0.5 * 0.1))
    assert vb.bound.prefactor == pytest.approx(expect, rel=1e-12)


def test_ta_to_vb_matches_direct_vb_construction():
    # aggregating per-window tails at rate rho with slack delta must equal
    # the direct vb construction at rate rho + delta
    rng = np.random.default_rng(3)
    for _ in range(50):
        th = float(rng.uniform(0.02, 4.0))
        sigma = float(rng.uniform(0.0, 1.0))
        rho = float(rng.uniform(0.01, 0.9))
        delta = float(rng.uniform(1e-4, 0.5))
        direct = vb_curve_from_sigma_rho(SigmaRho(th, sigma, rho), rho + delta)
        agg = ta_to_vb(ta_curve_from_sigma_rho(SigmaRho(th, sigma, rho), rho), delta)
        assert agg.rate == pytest.approx(direct.rate, rel=1e-12)
        assert agg.bound.prefactor == pytest.approx(direct.bound.prefactor, rel=1e-12)


def test_ta_to_vb_large_delta_recovers_prefactor():
    ta = ta_curve_from_sigma_rho(SigmaRho(1.0, 0.4, 0.2), 0.2)
    vb = ta_to_vb(ta, 50.0)
    assert vb.bound.prefactor == pytest.approx(ta.bound.prefactor, rel=1e-12)


def test_ta_to_vb_input_validation():
    ta = ta_curve_from_sigma_rho(SigmaRho(1.0, 0.0, 0.2), 0.2)
    with pytest.raises(ValueError):
        ta_to_vb(ta, 0.0)
    vb = vb_curve_from_sigma_rho(SigmaRho(1.0, 0.0, 0.2), 0.3)
    with pytest.raises(ValueError):
        ta_to_vb(vb, 0.1)


def test_minplus_symmetric_exponentials():
    f = BoundingFunction.exponential(1.0, 1.0)
    for x in (2, 4, 8):
        assert minplus_convolve(f, f, x) == pytest.approx(2.0 * math.exp(-x / 2.0))


def test_minplus_with_zero_bound_returns_other():
    f = BoundingFunction.exponential(0.7, 0.3)
    zero = BoundingFunction.exponential(0.0, 1.0)
    for x in (0, 1, 5, 20):
        assert minplus_convolve(f, zero, x) == pytest.approx(f.evaluate(x))


def test_minplus_against_dense_grid():
    f = BoundingFunction.exponential(2.0, 1.0)
    g = BoundingFunction.exponential(3.0, 2.0)
    x = 4
    ys = np.arange(0.0, x + 1e-9, 1e-4)
    dense = float(np.min(2.0 * np.exp(-ys) + 3.0 * np.exp(-2.0 * (x - ys))))
    assert minplus_convolve(f, g, x) == pytest.approx(min(1.0, dense), abs=1e-6)


def test_minplus_is_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(40):
        f = BoundingFunction.exponential(float(rng.uniform(0, 5)), float(rng.uniform(0.05, 3)))
        g = BoundingFunction.exponential(float(rng.uniform(0, 5)), float(rng.uniform(0.05, 3)))
        for x in (0, 1, 3, 17):
            assert abs(minplus_convolve(f, g, x) - minplus_convolve(g, f, x)) <= 1e-12


def test_minplus_rejects_negative_x():
    f = BoundingFunction.exponential(1.0, 1.0)
    with pytest.raises(ValueError):
        minplus_convolve(f, f, -1)


def test_independent_with_perfect_service_reduces_to_arrival():
    f = BoundingFunction.exponential(0.8, 0.7)
    zero = BoundingFunction.exponential(0.0, 1.0)
    for x in (0, 2, 6):
        assert independent_tail_convolve(f, zero, x) == pytest.approx(f.evaluate(x))
        assert independent_tail_convolve(zero, f, x) == pytest.approx(f.evaluate(x))
    assert independent_tail_convolve(zero, zero, 5) == 0.0


def test_independent_beats_minplus_deep_in_the_tail():
    # the rate-composition bound degrades the decay to t1*t2/(t1+t2) while
    # the independence-based bound keeps the slower of the two rates
    f = BoundingFunction.exponential(1.0, 1.0)
    g = BoundingFunction.exponential(1.0, 0.3)
    for x in (20.0, 30.0, 50.0):
        assert independent_tail_convolve(f, g, x) < minplus_convolve(f, g, x)
    mp = [minplus_convolve(f, g, x) for x in (30.0, 50.0)]
    ind = [independent_tail_convolve(f, g, x) for x in (30.0, 50.0)]
    assert (math.log(mp[1]) - math.log(mp[0])) / 20.0 == pytest.approx(-0.3 / 1.3, abs=1e-9)
    assert (math.log(ind[1]) - math.log(ind[0])) / 20.0 == pytest.approx(-0.3, abs=1e-3)


def test_independent_nonincreasing_in_x():
    f = BoundingFunction.exponential(3.0, 0.4)
    g = BoundingFunction.exponential(1.5, 0.9)
    vals = [independent_tail_convolve(f, g, x) for x in range(60)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_kernels_match_scalar_oracles():
    # prefactors 0, in (0, 1), exactly 1 and above 1 (dead zones), equal
    # decays among the draws; both kernels run over all cases at once, the
    # way the bound grid calls them, and once per case through the scalar
    # convolutions
    rng = np.random.default_rng(2024)
    pool = [0.0, 1.0] + list(rng.uniform(0.0, 1.0, 4)) + list(np.exp(rng.uniform(0.0, 7.0, 6)))
    cases = []
    for _ in range(48):
        a, b = (float(rng.choice(pool)) for _ in range(2))
        t1 = float(np.exp(rng.uniform(np.log(0.01), np.log(3.0))))
        t2 = t1 if rng.random() < 0.25 else float(np.exp(rng.uniform(np.log(0.01), np.log(3.0))))
        cases.append((a, t1, b, t2))
    a, t1, b, t2 = (np.array(col) for col in zip(*cases))
    fs = [BoundingFunction.exponential(c[0], c[1]) for c in cases]
    gs = [BoundingFunction.exponential(c[2], c[3]) for c in cases]
    for x in range(201):
        mp = _minplus_vec(a, t1, b, t2, float(x))
        ind = _indep_vec(a, t1, b, t2, float(x))
        for j, (f, g) in enumerate(zip(fs, gs)):
            want_mp = _minplus_oracle(*cases[j], x)
            want_ind = _independent_oracle(f, g, x)
            for got, want in ((mp[j], want_mp), (ind[j], want_ind),
                              (minplus_convolve(f, g, x), want_mp),
                              (independent_tail_convolve(f, g, x), want_ind)):
                assert abs(got - want) <= 1e-12 + 1e-9 * abs(want), (cases[j], x, got, want)
