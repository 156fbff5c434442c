"""MAC parameters, slot geometry, the fixed point, and the impairment MGF."""
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from snc80211 import dcf
from snc80211.bounds import GridOptions
from snc80211.characterize import FitConvergenceError
from snc80211.dcf import (
    DEFAULT_T_CAP,
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


def test_fixed_point_refuses_an_attempt_rate_past_one(params):
    # the mean backoff cw_min/2 is half a slot at cw_min = 1: one node alone
    # would attempt twice a slot, while contention brings more nodes below 1
    one = replace(params, cw_min=1, cw_max=1)
    with pytest.raises(ValueError, match=r"^cw_min = 1 .* tau = 2 per slot, outside \(0, 1\]"):
        solve_fixed_point(replace(one, n_nodes=1))
    for n, tau in ((2, 0.5207), (4, 0.3003)):
        assert solve_fixed_point(replace(one, n_nodes=n)).tau == pytest.approx(tau, abs=1e-4)


@pytest.mark.parametrize("n", [20_000, 10 ** 6])
def test_fixed_point_solves_where_the_residual_at_one_rounds_to_zero(params, n):
    # at eta = 1 the residual -(1 - tau)^(n-1) rounds to 0 here, which still
    # brackets the root; 1 - eta is then set by the bisection tolerance
    fp = solve_fixed_point(replace(params, n_nodes=n))
    assert 0.0 < 1.0 - fp.eta <= 1e-10
    assert fp.tau == pytest.approx(0.0034448818899698, rel=1e-12)
    assert 0.0 < stable_rate_threshold(fp) < 1e-12


def test_fixed_point_monotone_in_n(params):
    fps = [solve_fixed_point(replace(params, n_nodes=n)) for n in (10, 20, 100)]
    taus = [fp.tau for fp in fps]
    etas = [fp.eta for fp in fps]
    assert taus[0] > taus[1] > taus[2]
    assert etas[0] < etas[1] < etas[2]


def test_stable_rate_threshold(params, fixed_point):
    thr = stable_rate_threshold(fixed_point)
    assert thr == pytest.approx(0.079295209692, abs=1e-9)
    assert 1.0 - ImpairmentModel(params).sustainable_rate() == pytest.approx(1.0 - thr, rel=1e-12)


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
        impairment_mgf(fixed_point, 0.1, 10_001)


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


def _scipy_impairment_mgf(fp, theta, t):
    # the enumeration as first written, on scipy's gammaln and logsumexp and
    # a meshgrid; impairment_mgf must return the same float, bit for bit
    if t == 1:
        return math.exp(theta)
    L = fp.L
    p_t, p_nt, ps_c = fp.p_t, fp.p_nt, fp.p_s_cond
    log_pt = math.log(p_t) if p_t > 0 else -math.inf
    log_pnt = math.log(p_nt) if p_nt > 0 else -math.inf
    log_w = math.log(ps_c * math.exp(-theta) + (1.0 - ps_c))

    def xlogy(count, log_p):
        if log_p == -math.inf:
            return np.where(count == 0, 0.0, -math.inf)
        return count * log_p

    terms = []
    if p_t > 0 and L > 1:
        I, K = np.meshgrid(np.arange(0, t - 1), np.arange(1, L), indexing="ij")
        idle = (t - I - 1) * L - K
        m = idle + I
        log_comb = gammaln(m + 1) - gammaln(I + 1) - gammaln(idle + 1)
        wk = ps_c * np.exp(-theta * K / L) + (1.0 - ps_c)
        lt = (log_pt + log_comb + xlogy(I, log_pt) + xlogy(idle, log_pnt)
              + np.log(wk) + I * log_w + theta * t)
        terms.append(lt.ravel())
    i2 = np.arange(0, t)
    idle2 = (t - i2 - 1) * L
    m2 = idle2 + i2
    log_comb2 = gammaln(m2 + 1) - gammaln(i2 + 1) - gammaln(idle2 + 1)
    lt2 = (log_comb2 + xlogy(i2, log_pt) + xlogy(idle2, log_pnt)
           + i2 * log_w + theta * t)
    terms.append(lt2.ravel())
    return math.exp(float(logsumexp(np.concatenate(terms))))


def _enumeration_cases():
    """(fp, theta, t) over random fixed points and edge slot probabilities;
    theta * t below 700 keeps the MGF inside the float range."""
    rng = np.random.default_rng(12)
    cases = []
    for _ in range(300):
        params = Params80211(n_nodes=int(rng.integers(1, 51)),
                             payload=int(rng.integers(0, 1501)))
        cases.append(solve_fixed_point(params))
    for L in (2, 3, 39):
        for p_t in (0.0, 1.0, 0.37):
            for ps_c in (0.0, 1.0, 0.61):
                cases.append(_fp(p_t, ps_c, L))
    for fp in cases:
        t = int(rng.integers(1, 401))
        theta = float(np.exp(rng.uniform(np.log(1e-4), np.log(min(10.0, 700.0 / t)))))
        yield fp, theta, t


def test_impairment_mgf_is_bit_identical_to_the_scipy_enumeration(monkeypatch):
    # start from an empty log-factorial table so that the cases below make
    # it grow, the last one well past anything before it
    monkeypatch.setattr(dcf, "_log_fact", np.zeros(0))
    for fp, theta, t in _enumeration_cases():
        assert impairment_mgf(fp, theta, t) == _scipy_impairment_mgf(fp, theta, t), (fp, theta, t)
    fp = solve_fixed_point(Params80211(payload=1500))
    before = len(dcf._log_fact)
    assert impairment_mgf(fp, 0.3, 2345) == _scipy_impairment_mgf(fp, 0.3, 2345)
    assert len(dcf._log_fact) > max(before, 2344 * fp.L)


def _assert_pass_matches_each_call(fp, thetas, t):
    log_m = dcf._log_mgfs(fp, thetas, t)
    assert log_m.shape == (len(thetas),)
    for theta, v in zip(thetas, log_m.tolist()):
        assert dcf._exp_or_diverge(v, theta, t) == impairment_mgf(fp, theta, t), (fp, theta, t)


def test_batched_log_mgfs_equal_each_impairment_mgf(monkeypatch):
    # one pass at each enumeration case's t, from an empty log-factorial
    # table, so that some passes start past the table and grow it; the
    # case's theta alone, or first among up to two smaller ones
    monkeypatch.setattr(dcf, "_log_fact", np.zeros(0))
    rng = np.random.default_rng(14)
    grew = 0
    for fp, theta, t in _enumeration_cases():
        thetas = [theta, *(theta * rng.uniform(1e-3, 1.0, int(rng.integers(0, 3))))]
        before = len(dcf._log_fact)
        _assert_pass_matches_each_call(fp, thetas, t)
        grew += len(thetas) > 1 and before <= (t - 1) * fp.L
    assert grew > 0
    # passes at the t cap
    for fp in (_fp(0.37, 0.61, 2), _fp(1.0, 0.61, 3), solve_fixed_point(Params80211())):
        _assert_pass_matches_each_call(fp, [0.05, 0.01, 0.05], DEFAULT_T_CAP)


@pytest.mark.parametrize("payload", [256, 1500])
def test_log_factorial_table_is_bit_identical_to_gammaln(monkeypatch, payload):
    # grown from empty in steps, as the envelope fit grows it, up to the
    # whole DEFAULT_T_CAP * L table
    monkeypatch.setattr(dcf, "_log_fact", np.zeros(0))
    n = DEFAULT_T_CAP * solve_fixed_point(Params80211(payload=payload)).L
    for n_max in (0, 1, 12, 999, 5000, n):
        table = dcf._log_factorials(n_max, n)
    assert len(table) == n + 1
    np.testing.assert_array_equal(table.view(np.int64), gammaln(np.arange(n + 1) + 1).view(np.int64))


def test_log_factorial_is_bit_identical_to_gammaln_at_the_branch_edges():
    # x = k + 1 at and around each edge of cephes lgam's branches, far past
    # any table the package builds
    x = np.array([1, 2, 3, 11, 12, 13, 14, 998, 999, 1000, 1001,
                  10**8 - 1, 10**8, 10**8 + 1, 10**8 + 2, 10**12])
    got = dcf._log_factorial(x - 1)
    np.testing.assert_array_equal(got.view(np.int64), gammaln(x).view(np.int64))


def _assert_stored_y_is_each_call(fp, thetas, envelopes):
    for theta, ys in zip(thetas, envelopes):
        assert ys[0] == 0.0
        for t, y in enumerate(ys[1:], start=1):
            assert y == math.log(impairment_mgf(fp, theta, t)) / theta, (theta, t)


def test_stored_envelopes_equal_each_impairment_mgf(params, monkeypatch):
    model = ImpairmentModel(params)
    thetas = (0.3, 2.0, 0.01)
    envelopes = model._envelopes(thetas)
    assert [len(ys) for ys in envelopes] == [13, 27, 4]  # each up to the t its fit stops at
    _assert_stored_y_is_each_call(model.fixed_point, thetas, envelopes)
    # a theta that fails stores its error at the t it fails, the others go on
    model.fixed_point = _fp(0.9, 0.61, 3)
    thetas = (60.0, 800.0, 0.3)
    envelopes = model._envelopes(thetas)
    for theta, t_fail, ys in zip(thetas, (12, 1, None), envelopes):
        if t_fail:
            assert len(ys) == t_fail + 1 and isinstance(ys[-1], FitConvergenceError)
            with pytest.raises(FitConvergenceError, match=f"theta={theta}, t={t_fail}$"):
                impairment_mgf(model.fixed_point, theta, t_fail)
            ys = ys[:-1]
        _assert_stored_y_is_each_call(model.fixed_point, [theta], [ys])
    # slopes that never settle are walked to the t cap (here 60) and no
    # further, and end in the cap error
    monkeypatch.setattr(dcf, "_settled", lambda prev_s, s: False)
    monkeypatch.setattr(dcf, "DEFAULT_T_CAP", 60)
    model.fixed_point = _fp(0.37, 0.61, 2)
    thetas = (0.05, 0.02)
    envelopes = model._envelopes(thetas)
    assert [len(ys) for ys in envelopes] == [62, 62]
    for ys in envelopes:
        assert isinstance(ys[-1], FitConvergenceError)
        assert str(ys[-1]) == "slope did not stabilize within t_cap=60"
    _assert_stored_y_is_each_call(model.fixed_point, thetas, [ys[:-1] for ys in envelopes])


@pytest.mark.parametrize("theta, t_over", [(60.0, 12), (45.0, 17)])
def test_fit_raises_at_the_first_overflowing_t(params, theta, t_over):
    # the slope has not settled when M_I(t) first overflows: inside the
    # first chunk of t at theta 60, at the start of the second at theta 45;
    # the t after it overflow as well, and the fit names the first one
    fp = _fp(0.9, 0.61, 3)
    assert math.isfinite(impairment_mgf(fp, theta, t_over - 1))
    for t in (t_over, t_over + 1):
        with pytest.raises(FitConvergenceError, match=f"theta={theta}, t={t}$"):
            impairment_mgf(fp, theta, t)
    model = ImpairmentModel(params)
    model.fixed_point = fp
    with pytest.raises(FitConvergenceError,
                       match=f"^impairment MGF overflows a float at theta={theta}, t={t_over}$"):
        model.sigma_rho(theta)


def _bits(x):
    return np.float64(x).tobytes()


def _logsumexps(rows):
    # dcf._logsumexp of the rows stacked; each row must get the bits it
    # gets on its own
    got = dcf._logsumexp(np.stack(rows))
    assert got.shape == (len(rows),)
    assert [_bits(g) for g in got] == [_bits(dcf._logsumexp(r[None])[0]) for r in rows]
    return got


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 1000])
def test_logsumexp_is_bit_identical_to_scipy(n):
    rng = np.random.default_rng(n)
    for scale in (1e-3, 1.0, 50.0, 800.0):
        a = rng.normal(0.0, scale, n) - 10.0
        arrays = [a, np.where(rng.random(n) < 0.3, -np.inf, a)]
        tied = a.copy()
        tied[rng.integers(0, n, 3)] = a.max() + 1.0  # tied maxima
        arrays.append(tied)
        ninf = tied.copy()
        ninf[rng.integers(0, n, n // 2 + 1)] = -np.inf
        ninf[0] = 3.0 * scale
        arrays.append(ninf)
        for arr in arrays:
            assert _bits(_logsumexps([arr])[0]) == _bits(logsumexp(arr)), (scale, arr)
        # rows side by side, and shorter ones, each on its own
        for rows in (arrays, [arr[: n // 3 + 1] for arr in arrays]):
            rng.shuffle(rows)
            got = _logsumexps(rows)
            assert [_bits(g) for g in got] == [_bits(logsumexp(arr)) for arr in rows], scale
    # scipy's fallback: all terms -inf, or a +inf term, alone and beside finite rows
    fallback = [np.full(n, -np.inf), np.zeros(n), np.r_[np.zeros(n - 1), np.inf]]
    for arr in fallback:
        assert _bits(_logsumexps([arr])[0]) == _bits(logsumexp(arr))
    assert ([_bits(g) for g in _logsumexps(fallback)]
            == [_bits(logsumexp(arr)) for arr in fallback])


def test_impairment_mgf_past_the_float_range_is_nonconvergence(fixed_point):
    # theta * t is inf: no float MGF, and no numpy overflow warning either
    with pytest.raises(FitConvergenceError, match="overflows a float"):
        impairment_mgf(fixed_point, 1e308, 2)
    # a lone node owns every transmission (p_s_cond = 1), so e^{-theta}
    # underflows to a zero credit factor; M_I(t) >= e^theta overflows first
    lone = solve_fixed_point(Params80211(n_nodes=1))
    assert lone.p_s_cond == 1.0
    for t in (2, 3):
        with pytest.raises(FitConvergenceError, match=f"theta=800.0, t={t}$"):
            impairment_mgf(lone, 800.0, t)


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
    a_i = 1.0 - ImpairmentModel(params).sustainable_rate()
    assert abs(impairment_sigma_rho(params, 0.01).rho - a_i) < 0.01


def test_impairment_envelope_trends(params):
    # larger theta weights bad sample paths more: rho grows, sigma shrinks
    srs = [impairment_sigma_rho(params, th) for th in (0.01, 0.1, 1.0, 5.0)]
    assert all(b.rho > a.rho for a, b in zip(srs, srs[1:]))
    assert all(b.sigma < a.sigma for a, b in zip(srs, srs[1:]))


def test_impairment_model_caches(params):
    model = ImpairmentModel(params)
    a = model.sigma_rho(0.1)
    b = model.sigma_rho(0.1)
    assert a is b
    assert 1.0 - model.sustainable_rate() == pytest.approx(0.920704790308, abs=1e-9)


def _fits_or_error(fit):
    try:
        return fit()
    except (FitConvergenceError, ValueError) as e:
        return type(e), str(e)


def _assert_table_is_the_one_theta_loop(params, thetas):
    # a fresh model fits the table in lockstep; another fits one theta at a
    # time, each a table of its own; both give the same floats or error
    table = _fits_or_error(lambda: ImpairmentModel(params).sigma_rho_table(thetas))
    single = ImpairmentModel(params)
    loop = _fits_or_error(lambda: [single.sigma_rho(th) for th in thetas])
    assert table == loop, (params, thetas)
    return table


@pytest.mark.parametrize("payload", [0, 256, 1500])
@pytest.mark.parametrize("n_nodes", [1, 2, 10, 50])
def test_table_fit_is_the_one_theta_loop(payload, n_nodes):
    params = Params80211(payload=payload, n_nodes=n_nodes)
    thetas = list(GridOptions().thetas())
    table = _assert_table_is_the_one_theta_loop(params, thetas)
    assert [sr.theta for sr in table] == thetas
    if (payload, n_nodes) == (256, 10):
        _assert_table_is_the_one_theta_loop(params, thetas[::-1])
        # a repeated theta is fitted once and gets the same object
        table = _assert_table_is_the_one_theta_loop(params, [0.3, 0.01, 0.3, 5.0, 0.01, 1.0])
        assert table[0] is table[2] and table[1] is table[4]


def _recorded_passes(monkeypatch):
    # (theta, t) of every pass of dcf._log_mgfs, one list per pass
    passes = []
    log_mgfs = dcf._log_mgfs

    def recorded(fp, thetas, t):
        passes.append([(theta, t) for theta in thetas])
        return log_mgfs(fp, thetas, t)

    monkeypatch.setattr(dcf, "_log_mgfs", recorded)
    return passes


def _terms(fp, t):
    # log-MGF terms of one theta at t: case I's (t - 1) x (L - 1), case II's t
    return (t - 1) * (fp.L - 1 if fp.p_t > 0 else 0) + t


def test_table_fit_past_the_pass_cap_is_the_one_theta_loop(params, monkeypatch):
    # 200 thetas soon pass _PASS_TERMS, and the thetas still fitting at one
    # t split across several passes
    thetas = list(np.geomspace(0.01, 5.0, 200))
    passes = _recorded_passes(monkeypatch)
    table = ImpairmentModel(params).sigma_rho_table(thetas)
    monkeypatch.undo()
    single = ImpairmentModel(params)
    assert table == [single.sigma_rho(th) for th in thetas]
    fp = single.fixed_point
    assert all(len(p) * _terms(fp, p[0][1]) <= dcf._PASS_TERMS or len(p) == 1 for p in passes)
    ts = [p[0][1] for p in passes]
    assert len(set(ts)) < len(ts)


def test_table_computes_only_what_the_fits_read(params, monkeypatch):
    # every (theta, t) one log-MGF pass computes for the default grid is one
    # that a walk of that theta alone computes, and the reverse
    thetas = list(GridOptions().thetas())
    passes = _recorded_passes(monkeypatch)
    model = ImpairmentModel(params)
    model.sigma_rho_table(thetas)
    computed = sorted(pair for p in passes for pair in p)
    passes.clear()
    for theta in thetas:
        ImpairmentModel(params)._envelopes([theta])
    assert computed == sorted(pair for p in passes for pair in p)
    assert sum(_terms(model.fixed_point, t) for _, t in computed) == 135_331
    # a theta already fitted costs no pass
    passes.clear()
    model.sigma_rho_table(thetas[::-1])
    assert passes == []


def test_model_and_direct_sigma_rho_agree(params, impairment):
    direct = impairment_sigma_rho(params, 0.5)
    cached = impairment.sigma_rho(0.5)
    assert cached.sigma == pytest.approx(direct.sigma, rel=1e-12)
    assert cached.rho == pytest.approx(direct.rho, rel=1e-12)
