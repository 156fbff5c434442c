"""MAC parameters, slot geometry, the fixed point, and the impairment MGF."""
import math
from dataclasses import replace

import pytest

from snc80211.dcf import (
    DcfFixedPoint,
    ImpairmentModel,
    Params80211,
    ack_slots,
    data_slots,
    difs_sifs_slots,
    impairment_mgf,
    impairment_sigma_rho,
    oracle_impairment_mgf,
    slot_length,
    solve_fixed_point,
    stable_rate_threshold,
)


def test_params_validation():
    with pytest.raises(ValueError):
        Params80211(cw_min=24, cw_max=1024)  # ratio not a power of two
    with pytest.raises(ValueError):
        Params80211(cw_min=0)
    with pytest.raises(ValueError):
        Params80211(retry_limit=0)
    with pytest.raises(ValueError):
        Params80211(n_nodes=0)
    with pytest.raises(ValueError):
        Params80211(idle_slot=0.0)
    with pytest.raises(ValueError):
        Params80211(payload=-1)


def test_slot_geometry_defaults(params):
    assert ack_slots(params) == 16     # 304 us
    assert data_slots(params) == 20    # 398.5 us
    assert difs_sifs_slots(params) == 3
    assert slot_length(params) == 39


def test_slot_geometry_occupies_every_touched_slot(params):
    # 304 us = 15.2 idle slots occupies 16; the exact multiple 60 us stays 3
    assert ack_slots(replace(params, ack_header=14)) == 16
    assert difs_sifs_slots(replace(params, sifs=10.0, difs=50.0)) == 3
    # larger payload: 24*8/1e6 + 1528*8/11e6 seconds = 1303.3 us -> 66 slots
    assert data_slots(replace(params, payload=1500)) == 66


def test_fixed_point_scenario_values(fixed_point):
    fp = fixed_point
    assert fp.L == 39
    assert fp.tau == pytest.approx(0.037609599546, abs=1e-9)
    assert fp.eta == pytest.approx(0.291790836811, abs=1e-9)
    assert fp.p_nt == pytest.approx(0.681573700187, abs=1e-9)
    assert fp.p_t == pytest.approx(0.318426299813, abs=1e-9)
    assert fp.p_s == pytest.approx(0.026635463022, abs=1e-9)
    assert fp.p_s_cond == pytest.approx(0.083647183156, abs=1e-9)


def test_fixed_point_residuals(params, fixed_point):
    fp = fixed_point
    n = params.n_nodes
    assert abs(1.0 - (1.0 - fp.tau) ** (n - 1) - fp.eta) < 1e-9
    num = sum(fp.eta ** i for i in range(params.retry_limit))
    den = sum(fp.eta ** i * (2 ** i * params.cw_min / 2.0)
              for i in range(params.retry_limit))
    assert abs(fp.tau - num / den) < 1e-9
    assert fp.p_nt == pytest.approx((1.0 - fp.tau) ** n, rel=1e-12)
    assert fp.p_s == pytest.approx(fp.tau * (1.0 - fp.eta), rel=1e-12)
    assert fp.p_s_cond == pytest.approx(fp.p_s / fp.p_t, rel=1e-12)


def test_fixed_point_single_node(params):
    fp = solve_fixed_point(replace(params, n_nodes=1))
    assert fp.eta == 0.0
    assert fp.tau == pytest.approx(1.0 / 16.0, rel=1e-12)


def test_fixed_point_monotone_in_n(params):
    fps = [solve_fixed_point(replace(params, n_nodes=n)) for n in (10, 20, 100)]
    taus = [fp.tau for fp in fps]
    etas = [fp.eta for fp in fps]
    assert taus[0] > taus[1] > taus[2]
    assert etas[0] < etas[1] < etas[2]


def test_stable_rate_threshold(params, fixed_point):
    thr = stable_rate_threshold(fixed_point)
    assert thr == pytest.approx(0.079295209692, abs=1e-9)
    assert ImpairmentModel(params).average_rate() == pytest.approx(1.0 - thr, rel=1e-12)


def test_threshold_formula_edges():
    # a node that always transmits and always succeeds is never impaired
    fp = DcfFixedPoint(tau=1.0, eta=0.0, p_nt=1e-15, p_t=0.3, p_s=0.3,
                       p_s_cond=1.0, L=39)
    assert 1.0 - stable_rate_threshold(fp) == pytest.approx(0.0, abs=1e-12)
    # a node that never succeeds is fully impaired
    fp = DcfFixedPoint(tau=0.0, eta=1.0, p_nt=0.5, p_t=0.5, p_s=0.0,
                       p_s_cond=0.0, L=39)
    assert 1.0 - stable_rate_threshold(fp) == 1.0


def _fp(p_t, ps_c, L):
    return DcfFixedPoint(tau=0.0, eta=0.0, p_nt=1.0 - p_t, p_t=p_t,
                         p_s=p_t * ps_c, p_s_cond=ps_c, L=L)


def test_impairment_mgf_first_slot_is_busy(fixed_point):
    for th in (0.05, 0.4, 2.0):
        assert impairment_mgf(fixed_point, th, 1) == pytest.approx(math.exp(th), rel=1e-12)


def test_impairment_mgf_small_theta_limit(fixed_point):
    assert impairment_mgf(fixed_point, 1e-9, 5) == pytest.approx(1.0, abs=1e-6)


def test_impairment_mgf_argument_validation(fixed_point):
    with pytest.raises(ValueError):
        impairment_mgf(fixed_point, 0.1, 0)
    with pytest.raises(ValueError):
        impairment_mgf(fixed_point, 0.0, 2)
    with pytest.raises(ValueError):
        impairment_mgf(fixed_point, 0.1, 11, t_cap=10)


def test_impairment_mgf_monotone_in_theta(fixed_point):
    vals = [impairment_mgf(fixed_point, th, 5) for th in (0.05, 0.1, 0.5, 1.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_impairment_mgf_per_slot_envelope_in_unit_range(fixed_point):
    # the impairment can never exceed one slot of lost service per slot
    for th in (0.05, 0.5, 2.0):
        for t in (1, 3, 8, 40):
            y = math.log(impairment_mgf(fixed_point, th, t)) / (th * t)
            assert 0.0 <= y <= 1.0 + 1e-12


def test_impairment_mgf_regression(fixed_point):
    assert impairment_mgf(fixed_point, 0.1, 2) == pytest.approx(1.212191114616, rel=1e-9)
    assert impairment_mgf(fixed_point, 0.1, 5) == pytest.approx(1.599564038592, rel=1e-9)
    assert impairment_mgf(fixed_point, 0.1, 10) == pytest.approx(2.539419432952, rel=1e-9)


def test_oracle_edge_cases():
    th = 0.7
    assert oracle_impairment_mgf(_fp(0.3, 0.2, 3), th, 1) == pytest.approx(math.exp(th))
    # channel never free after the forced slot: impairment is the whole window
    assert oracle_impairment_mgf(_fp(0.0, 0.0, 3), th, 4) == pytest.approx(
        math.exp(4 * th), rel=1e-12)
    # every busy period is an own success: only the forced slot is lost
    assert oracle_impairment_mgf(_fp(1.0, 1.0, 3), th, 4) == pytest.approx(
        math.exp(th), rel=1e-12)
    with pytest.raises(ValueError):
        oracle_impairment_mgf(_fp(0.3, 0.2, 39), 0.1, 3)


def test_impairment_mgf_matches_oracle_small_grid():
    for L in (2, 3):
        for t in (2, 3):
            for p_t in (0.0, 0.4, 1.0):
                for ps_c in (0.0, 0.5, 1.0):
                    fp = _fp(p_t, ps_c, L)
                    a = impairment_mgf(fp, 0.8, t)
                    b = oracle_impairment_mgf(fp, 0.8, t)
                    assert a == pytest.approx(b, rel=1e-12), (L, t, p_t, ps_c)


def test_impairment_sigma_rho_sweep(params):
    expect = {
        0.01: (0.078710811, 0.921289189),
        0.1: (0.075574477, 0.924425523),
        1.0: (0.051185829, 0.948814171),
        5.0: (0.016092983, 0.983907017),
    }
    for th, (sg, rh) in expect.items():
        sr = impairment_sigma_rho(params, th)
        assert sr.sigma == pytest.approx(sg, abs=1e-6), th
        assert sr.rho == pytest.approx(rh, abs=1e-6), th


def test_impairment_rho_approaches_average_rate(params):
    a_i = ImpairmentModel(params).average_rate()
    assert abs(impairment_sigma_rho(params, 0.01).rho - a_i) < 0.01


def test_impairment_envelope_trends(params):
    # larger theta weights bad sample paths more: rho grows, sigma shrinks
    srs = [impairment_sigma_rho(params, th) for th in (0.01, 0.1, 1.0, 5.0)]
    assert all(b.rho > a.rho for a, b in zip(srs, srs[1:]))
    assert all(b.sigma < a.sigma for a, b in zip(srs, srs[1:]))


def test_service_curve_construction(impairment):
    sr = impairment.sigma_rho(0.1)
    sc = impairment.service_curve(0.1, 0.95)
    assert sc.kind == "ws-service"
    assert sc.rate == pytest.approx(0.05, rel=1e-12)
    expect = math.exp(0.1 * sr.sigma) / -math.expm1(0.1 * (sr.rho - 0.95))
    assert sc.bound.prefactor == pytest.approx(expect, rel=1e-9)
    assert sc.bound.decay == 0.1


def test_service_curve_rejects_bad_rates(impairment):
    sr = impairment.sigma_rho(0.1)
    with pytest.raises(ValueError):
        impairment.service_curve(0.1, sr.rho)  # not strictly above rho
    with pytest.raises(ValueError):
        impairment.service_curve(0.1, 1.0)


def test_impairment_model_caches(params):
    model = ImpairmentModel(params)
    a = model.sigma_rho(0.1)
    b = model.sigma_rho(0.1)
    assert a is b
    assert model.average_rate() == pytest.approx(0.920704790308, abs=1e-9)
    sc = model.service_curve(0.1, 0.95)
    assert sc.rate == pytest.approx(0.05)


def test_model_and_direct_sigma_rho_agree(params, impairment):
    direct = impairment_sigma_rho(params, 0.5)
    cached = impairment.sigma_rho(0.5)
    assert cached.sigma == pytest.approx(direct.sigma, rel=1e-12)
    assert cached.rho == pytest.approx(direct.rho, rel=1e-12)
