"""Poisson envelopes and the slope-stabilization fitter."""
import math
import re

import pytest

from snc80211.characterize import (
    FitConvergenceError,
    PoissonTraffic,
    fit_sigma_rho,
    poisson_sigma_rho,
)


def test_poisson_sigma_rho_closed_form():
    sr = poisson_sigma_rho(0.04, 1.0)
    assert sr.sigma == 0.0
    assert sr.rho == pytest.approx(0.04 * (math.e - 1.0), rel=1e-12)
    assert sr.rho == pytest.approx(0.068731, abs=1e-6)


def test_poisson_sigma_rho_edge_cases():
    assert poisson_sigma_rho(0.0, 2.0).rho == 0.0
    # small theta recovers the average rate
    assert poisson_sigma_rho(0.07, 1e-9).rho == pytest.approx(0.07, abs=1e-9)
    with pytest.raises(ValueError):
        poisson_sigma_rho(-0.1, 1.0)
    with pytest.raises(ValueError):
        poisson_sigma_rho(0.1, 0.0)


def test_poisson_mgf_overflow_is_nonconvergence():
    # e^theta - 1 leaves the float range past theta = 709.78, as the
    # impairment MGF does, so bounds --config with [grid] theta_max = 1e308
    # exits 4 instead of an OverflowError traceback
    assert math.isfinite(poisson_sigma_rho(0.04, 709.0).rho)
    for theta in (710.0, 1e308):
        message = f"Poisson MGF overflows a float at theta={theta}"
        with pytest.raises(FitConvergenceError, match=f"^{re.escape(message)}$"):
            poisson_sigma_rho(0.04, theta)


def test_fit_reads_each_envelope_point_once():
    # y(0) = 0 is taken by definition, and every y(t) is kept once read, so
    # an expensive envelope needs no memo of its own
    calls = []

    def y(t):  # slopes 1, 2, 1, 0, 0: stable first at t = 5
        calls.append(t)
        return (0.0, 1.0, 3.0)[t] if t < 3 else 4.0

    sr = fit_sigma_rho(1.0, y)
    assert calls == [1, 2, 3, 4, 5]
    assert sr.rho == 0.0
    assert sr.sigma == 4.0


def test_fit_linear_envelope():
    sr = fit_sigma_rho(0.5, lambda t: 0.37 * t)
    assert sr.rho == pytest.approx(0.37, rel=1e-12)
    assert sr.sigma == pytest.approx(0.0, abs=1e-12)
    assert sr.theta == 0.5


def test_fit_stops_at_first_stable_slope():
    # a piecewise envelope that flattens later still fits the early slope,
    # because the walk stops at the first t whose slope matches the previous
    sr = fit_sigma_rho(1.0, lambda t: float(min(5, t)))
    assert sr.rho == pytest.approx(1.0)
    assert sr.sigma == pytest.approx(0.0, abs=1e-12)


def test_fit_result_dominates_envelope():
    def y(t):  # y(0) = 0, as the fitter assumes
        return 0.2 * t + 0.6 * (1.0 - 0.5 ** t)

    sr = fit_sigma_rho(1.0, y)
    for t in range(0, 40):
        assert y(t) <= sr.rho * t + sr.sigma + 1e-9


def test_fit_poisson_envelope_recovers_parameters():
    rho = 0.04 * (math.e - 1.0)
    sr = fit_sigma_rho(1.0, lambda t: rho * t)
    assert sr.rho == pytest.approx(rho, rel=1e-5)
    assert sr.sigma == pytest.approx(0.0, abs=1e-6)


def test_fit_nonconvergence_raises():
    # sqrt slopes shrink too slowly for the relative band within the cap:
    # s(t)/s(t-1) ~ 1 - 1/(2t) enters the 1e-5 band only past t = 5e4
    with pytest.raises(FitConvergenceError):
        fit_sigma_rho(1.0, math.sqrt)


def test_poisson_traffic_model():
    with pytest.raises(ValueError):
        PoissonTraffic(-1.0)
