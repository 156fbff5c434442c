"""802.11 DCF modeling: slot geometry, the attempt-rate fixed point, and the
moment generating function of the channel impairment seen by one node.

Time is measured in network-calculus slots of L idle slots each, where L is
the number of idle-slot quanta one successful packet exchange occupies. All
combinatorial sums run in log space to survive large t.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, logsumexp

from .characterize import DEFAULT_EPSILON, FitConvergenceError, MgfEnvelope, fit_sigma_rho
from .curves import CurveWithBound, SigmaRho, vb_curve_from_sigma_rho

__all__ = [
    "Params80211",
    "DcfFixedPoint",
    "slot_length",
    "ack_slots",
    "data_slots",
    "difs_sifs_slots",
    "solve_fixed_point",
    "stable_rate_threshold",
    "impairment_mgf",
    "oracle_impairment_mgf",
    "impairment_sigma_rho",
    "ImpairmentModel",
]

DEFAULT_MGF_T_CAP = 10_000
ORACLE_SLOT_CAP = 64


@dataclass(frozen=True)
class Params80211:
    """802.11b PHY/MAC parameters. Defaults follow the standard 1/11 Mbps setup.

    Rates in bits/s, header and payload sizes in bytes, times in microseconds.
    retry_limit is the maximum number of transmission attempts per packet.
    """

    basic_rate: float = 1e6
    data_rate: float = 11e6
    phy_header: int = 24
    ack_header: int = 14
    mac_header: int = 28
    sifs: float = 10.0
    difs: float = 50.0
    idle_slot: float = 20.0
    cw_min: int = 32
    cw_max: int = 1024
    retry_limit: int = 7
    payload: int = 256
    n_nodes: int = 10

    def __post_init__(self):
        for name in ("basic_rate", "data_rate", "sifs", "difs", "idle_slot"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.cw_min < 1 or self.cw_max < self.cw_min:
            raise ValueError("need 1 <= cw_min <= cw_max")
        ratio = self.cw_max / self.cw_min
        if 2 ** round(math.log2(ratio)) != ratio:
            raise ValueError("cw_max must be cw_min times a power of two")
        if self.retry_limit < 1:
            raise ValueError("retry_limit must be at least 1")
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be at least 1")
        if self.payload < 0 or self.phy_header < 0 or self.ack_header < 0 or self.mac_header < 0:
            raise ValueError("sizes must be nonnegative")


@dataclass(frozen=True)
class DcfFixedPoint:
    """Solved per-idle-slot attempt rate tau and collision probability eta,
    with the derived slot probabilities and the slot length L.

    p_nt: no transmission in a slot; p_t: some transmission; p_s: this node
    succeeds; p_s_cond: a busy slot is this node's success (p_s / p_t).
    """

    tau: float
    eta: float
    p_nt: float
    p_t: float
    p_s: float
    p_s_cond: float
    L: int


def _ceil_slots(duration_us: float, idle_slot_us: float) -> int:
    # a duration occupies every idle slot it touches; the epsilon keeps exact
    # multiples (e.g. 60/20) from rounding up on float noise
    return int(math.ceil(duration_us / idle_slot_us - 1e-9))


def ack_slots(params: Params80211) -> int:
    """Idle slots occupied by an ACK frame at the basic rate."""
    us = (params.phy_header + params.ack_header) * 8 / params.basic_rate * 1e6
    return _ceil_slots(us, params.idle_slot)


def data_slots(params: Params80211) -> int:
    """Idle slots occupied by a data frame (PHY header at basic rate, rest at data rate)."""
    us = (params.phy_header * 8 / params.basic_rate
          + (params.mac_header + params.payload) * 8 / params.data_rate) * 1e6
    return _ceil_slots(us, params.idle_slot)


def difs_sifs_slots(params: Params80211) -> int:
    return _ceil_slots(params.difs + params.sifs, params.idle_slot)


def slot_length(params: Params80211) -> int:
    """L, the idle slots consumed by one complete successful exchange
    (DIFS + SIFS + ACK + DATA); one network-calculus slot equals L idle slots."""
    return difs_sifs_slots(params) + ack_slots(params) + data_slots(params)


def _tau_of_eta(eta: float, cw_min: int, stages: int) -> float:
    # mean number of attempts per packet over mean backoff slots per packet,
    # stage i weighted by eta^i with mean backoff 2^i * cw_min / 2 (uncapped)
    num = 0.0
    den = 0.0
    w = 1.0
    for i in range(stages):
        num += w
        den += w * (2 ** i * cw_min / 2.0)
        w *= eta
    return num / den


def solve_fixed_point(params: Params80211, tol: float = 1e-10) -> DcfFixedPoint:
    """Solve tau = attempts/backoff-slots jointly with eta = 1-(1-tau)^(n-1).

    Bisection on eta: the residual 1-(1-tau(eta))^(n-1) - eta is positive at
    eta=0 and negative at eta=1, and the composed map is monotone.
    """
    n = params.n_nodes
    stages = params.retry_limit
    L = slot_length(params)
    if n == 1:
        tau = _tau_of_eta(0.0, params.cw_min, stages)
        return _fixed_point_from(tau, 0.0, n, L)

    def resid(eta):
        tau = _tau_of_eta(eta, params.cw_min, stages)
        return 1.0 - (1.0 - tau) ** (n - 1) - eta

    lo, hi = 0.0, 1.0
    if resid(lo) <= 0 or resid(hi) >= 0:
        raise FitConvergenceError("fixed-point residual failed to bracket a root")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if resid(mid) > 0:
            lo = mid
        else:
            hi = mid
    eta = 0.5 * (lo + hi)
    tau = _tau_of_eta(eta, params.cw_min, stages)
    return _fixed_point_from(tau, eta, n, L)


def _fixed_point_from(tau, eta, n, L) -> DcfFixedPoint:
    p_nt = (1.0 - tau) ** n
    p_t = 1.0 - p_nt
    p_s = tau * (1.0 - eta)
    p_s_cond = p_s / p_t if p_t > 0 else 0.0
    return DcfFixedPoint(tau=tau, eta=eta, p_nt=p_nt, p_t=p_t, p_s=p_s,
                         p_s_cond=p_s_cond, L=L)


def stable_rate_threshold(fp: DcfFixedPoint) -> float:
    """Largest sustainable arrival rate, packets per network-calculus slot:
    p_s * L / (p_nt + p_t * L)."""
    return fp.p_s * fp.L / (fp.p_nt + fp.p_t * fp.L)


def impairment_mgf(fp: DcfFixedPoint, theta: float, t: int,
                   t_cap: int = DEFAULT_MGF_T_CAP) -> float:
    """E exp(theta * I(0, t)) where I is the impairment (time not spent
    serving this node) over t network-calculus slots, with the first slot
    conservatively taken as another node's transmission.

    Splits on whether the last transmission before the horizon is complete
    (case II) or cut off after k of its L idle slots (case I), counting i
    interior transmissions among the remaining idle slots. A transmission is
    this node's own success with probability p_s_cond; own complete
    transmissions credit a full slot (factor e^{-theta}), a cut-off own one
    credits k/L. Everything accumulates in log space.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    if t > t_cap:
        raise ValueError(f"t={t} beyond cap {t_cap}")
    if theta <= 0:
        raise ValueError("theta must be positive")
    if t == 1:
        return _exp_or_diverge(theta, theta, t)
    L = fp.L
    p_t, p_nt, ps_c = fp.p_t, fp.p_nt, fp.p_s_cond
    log_pt = math.log(p_t) if p_t > 0 else -math.inf
    log_pnt = math.log(p_nt) if p_nt > 0 else -math.inf
    # own-success credit factor per complete transmission
    w = ps_c * math.exp(-theta) + (1.0 - ps_c)
    log_w = math.log(w)
    terms = []

    if p_t > 0 and L > 1:
        # case I: last transmission cut off after k in [1, L-1] idle slots,
        # i complete transmissions before it, i in [0, t-2]
        i = np.arange(0, t - 1)
        k = np.arange(1, L)
        I, K = np.meshgrid(i, k, indexing="ij")
        idle = (t - I - 1) * L - K
        m = idle + I
        log_comb = gammaln(m + 1) - gammaln(I + 1) - gammaln(idle + 1)
        wk = ps_c * np.exp(-theta * K / L) + (1.0 - ps_c)
        lt = (log_pt + log_comb + _xlogy(I, log_pt) + _xlogy(idle, log_pnt)
              + np.log(wk) + I * log_w + theta * t)
        terms.append(lt.ravel())

    # case II: horizon ends on idle slots or a complete transmission,
    # i complete transmissions in [0, t-1]
    i2 = np.arange(0, t)
    idle2 = (t - i2 - 1) * L
    m2 = idle2 + i2
    log_comb2 = gammaln(m2 + 1) - gammaln(i2 + 1) - gammaln(idle2 + 1)
    lt2 = (log_comb2 + _xlogy(i2, log_pt) + _xlogy(idle2, log_pnt)
           + i2 * log_w + theta * t)
    terms.append(lt2.ravel())

    return _exp_or_diverge(float(logsumexp(np.concatenate(terms))), theta, t)


def _exp_or_diverge(log_m: float, theta: float, t: int) -> float:
    # an MGF past the float range cannot feed a fit: report a non-convergence
    try:
        return math.exp(log_m)
    except OverflowError as e:
        raise FitConvergenceError(
            f"impairment MGF overflows a float at theta={theta}, t={t}") from e


def _xlogy(count, log_p):
    # count * log_p with the 0 * (-inf) = 0 convention
    if log_p == -math.inf:
        return np.where(count == 0, 0.0, -math.inf)
    return count * log_p


def oracle_impairment_mgf(fp: DcfFixedPoint, theta: float, t: int) -> float:
    """Exact E exp(theta * I(0, t)) by walking every idle-slot boundary.

    The first network-calculus slot is forced busy (another node). After
    that, each idle-slot boundary is idle with probability p_nt or starts a
    transmission of L idle slots with probability p_t, owned by this node
    with probability p_s_cond; a transmission cut off by the horizon after k
    slots credits k/L if owned. Small instances only, the walk covers t*L
    idle slots.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    horizon = t * fp.L
    if t > 1 and horizon > ORACLE_SLOT_CAP:
        raise ValueError(f"instance too large for the oracle: t*L = {horizon}")
    if t == 1:
        return math.exp(theta)
    L = fp.L
    p_t, p_nt, ps_c = fp.p_t, fp.p_nt, fp.p_s_cond

    @lru_cache(maxsize=None)
    def rest(pos: int) -> float:
        """E exp(-theta * credit earned from idle-slot position pos on)."""
        if pos >= horizon:
            return 1.0
        out = p_nt * rest(pos + 1)
        remaining = horizon - pos
        if remaining >= L:
            own = math.exp(-theta) * rest(pos + L)
            other = rest(pos + L)
            out += p_t * (ps_c * own + (1.0 - ps_c) * other)
        else:
            # cut off after remaining = k in [1, L-1] idle slots
            out += p_t * (ps_c * math.exp(-theta * remaining / L) + (1.0 - ps_c))
        return out

    return math.exp(theta * t) * rest(L)


def impairment_mgf_envelope(fp: DcfFixedPoint, theta: float) -> MgfEnvelope:
    """The impairment's log-MGF envelope y(t) = (1/theta) log M_I(t)."""
    return MgfEnvelope(theta=theta,
                       fn=lambda t: math.log(impairment_mgf(fp, theta, t)) / theta)


def impairment_sigma_rho(params: Params80211, theta: float,
                         epsilon: float = DEFAULT_EPSILON) -> SigmaRho:
    """(sigma_I, rho_I) of the impairment at this theta, by envelope fitting."""
    return ImpairmentModel(params, epsilon).sigma_rho(theta)


class ImpairmentModel:
    """Impairment view of one node: fixed point, per-theta (sigma, rho) cache,
    average rate and service curves. The envelope fit is the expensive step,
    so sigma_rho results are cached per theta."""

    def __init__(self, params: Params80211, epsilon: float = DEFAULT_EPSILON):
        self.params = params
        self.epsilon = epsilon
        self.fixed_point = solve_fixed_point(params)
        self._cache: dict = {}

    def sigma_rho(self, theta: float) -> SigmaRho:
        sr = self._cache.get(theta)
        if sr is None:
            sr = fit_sigma_rho(impairment_mgf_envelope(self.fixed_point, theta),
                               epsilon=self.epsilon)
            self._cache[theta] = sr
        return sr

    def average_rate(self) -> float:
        """Long-run impairment rate a_I = 1 - sustainable service rate."""
        return 1.0 - stable_rate_threshold(self.fixed_point)

    def service_curve(self, theta: float, r_i: float) -> CurveWithBound:
        """Leftover service curve (1 - r_i) * t with the impairment's vb bound.

        r_i must exceed rho_I(theta) strictly and stay below the capacity of
        one packet per slot.
        """
        if r_i >= 1.0:
            raise ValueError("r_i must stay below the capacity of 1 packet per slot")
        vb = vb_curve_from_sigma_rho(self.sigma_rho(theta), r_i)  # enforces r_i > rho strictly
        return CurveWithBound(rate=1.0 - r_i, bound=vb.bound, kind="ws-service")
