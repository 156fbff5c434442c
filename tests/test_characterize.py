"""Poisson envelopes, and the slope-stabilization fit of the envelopes
dcf walks, on synthetic envelopes."""
import math
import re

import numpy as np
import pytest

from snc80211 import dcf
from snc80211.characterize import FitConvergenceError, PoissonTraffic, poisson_sigma_rho
from snc80211.dcf import DEFAULT_T_CAP, ImpairmentModel, Params80211


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


def _walk_and_fit(monkeypatch, theta, y):
    # the walk of _envelopes on a synthetic envelope y(t), t >= 1, and its
    # fit: the patched pass gives log M(t) = theta y(t), so that the walk
    # stores y(t) up to rounding; returns the fit and the t of each pass
    ts = []

    def log_mgfs(fp, thetas, t):
        ts.append(t)
        return np.array([th * y(t) for th in thetas])

    monkeypatch.setattr(dcf, "_log_mgfs", log_mgfs)
    ys = ImpairmentModel(Params80211())._envelopes([theta])[0]
    return dcf.fit_sigma_rho(theta, ys), ts


def test_fit_reads_each_envelope_point_once(monkeypatch):
    # y(0) = 0 is taken by definition, and each y(t) is computed once
    def y(t):  # slopes 1, 2, 1, 0, 0: stable first at t = 5
        return (0.0, 1.0, 3.0)[t] if t < 3 else 4.0

    sr, ts = _walk_and_fit(monkeypatch, 1.0, y)
    assert ts == [1, 2, 3, 4, 5]
    assert sr.rho == 0.0
    assert sr.sigma == 4.0


def test_fit_linear_envelope(monkeypatch):
    sr, _ = _walk_and_fit(monkeypatch, 0.5, lambda t: 0.37 * t)
    assert sr.rho == pytest.approx(0.37, rel=1e-12)
    assert sr.sigma == pytest.approx(0.0, abs=1e-12)
    assert sr.theta == 0.5


def test_fit_stops_at_first_stable_slope(monkeypatch):
    # a piecewise envelope that flattens later still fits the early slope,
    # because the walk stops at the first t whose slope matches the previous
    sr, ts = _walk_and_fit(monkeypatch, 1.0, lambda t: float(min(5, t)))
    assert ts == [1, 2]
    assert sr.rho == pytest.approx(1.0)
    assert sr.sigma == pytest.approx(0.0, abs=1e-12)


def test_fit_result_dominates_envelope(monkeypatch):
    def y(t):  # y(0) = 0, as the walk takes it
        return 0.2 * t + 0.6 * (1.0 - 0.5 ** t)

    sr, _ = _walk_and_fit(monkeypatch, 1.0, y)
    for t in range(0, 40):
        assert y(t) <= sr.rho * t + sr.sigma + 1e-9


def test_fit_poisson_envelope_recovers_parameters(monkeypatch):
    rho = 0.04 * (math.e - 1.0)
    sr, _ = _walk_and_fit(monkeypatch, 1.0, lambda t: rho * t)
    assert sr.rho == pytest.approx(rho, rel=1e-5)
    assert sr.sigma == pytest.approx(0.0, abs=1e-6)


def test_fit_nonconvergence_raises(monkeypatch):
    # sqrt slopes shrink too slowly for the relative band within the cap:
    # s(t)/s(t-1) ~ 1 - 1/(2t) enters the 1e-5 band only past t = 5e4
    message = f"slope did not stabilize within t_cap={DEFAULT_T_CAP}"
    with pytest.raises(FitConvergenceError, match=f"^{message}$"):
        _walk_and_fit(monkeypatch, 1.0, math.sqrt)


def test_poisson_traffic_model():
    with pytest.raises(ValueError):
        PoissonTraffic(-1.0)
