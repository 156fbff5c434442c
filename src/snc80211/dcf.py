"""802.11 DCF modeling: slot geometry, the attempt-rate fixed point, and the
moment generating function of the channel impairment seen by one node, with
its (sigma, rho) envelope fits.

Time is measured in network-calculus slots of L idle slots each, where L is
the number of idle-slot quanta one successful packet exchange occupies. All
combinatorial sums run in log space to survive large t. The envelopes of a
table of thetas are fitted in lockstep (ImpairmentModel.sigma_rho_table):
it walks t = 1, 2, ... with one enumeration pass per t over the thetas
whose envelope slope has not yet settled, and each (theta, t) gets the
bits of a lone impairment_mgf call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .characterize import FitConvergenceError, SigmaRho

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

ORACLE_SLOT_CAP = 64
DEFAULT_T_CAP = 10_000  # the largest t an envelope walk or the impairment MGF reaches
_EPSILON = 1e-5  # relative band in which an envelope slope counts as settled
_SLACK = 1e-9  # how far a fitted line may lie below a y(t) it covers
# Largest slot length L a config may give. The envelope fit holds O(L) terms
# per network-calculus slot (about 130 bytes per unit of L at its peak), and
# every 802.11 exchange is far shorter: L is 39 by default and about 2,100
# for a 2312-byte payload at 1 Mbps with a 9 us slot.
_L_MAX = 1 << 20
_FIXED_POINT_TOL = 1e-10  # bisection stops once the eta bracket is this narrow
_log_fact = np.zeros(0)  # log(n!) at index n, grown on first use by _log_factorials
_PASS_TERMS = 1 << 15  # most theta x log-MGF terms a pass holds, unless one theta has more
# cephes lgam, which scipy.special.gammaln calls: log(sqrt(2 pi)), and the
# coefficients of its Stirling correction for 13 <= x < 1000
_LS2PI = 0.91893853320467274178
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)


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
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.cw_min < 1 or self.cw_max < self.cw_min:
            raise ValueError("need 1 <= cw_min <= cw_max")
        if self.cw_max > 1 << 32:
            # the simulator draws each backoff from one 32-bit word
            raise ValueError(f"cw_max must be at most 2**32, got a "
                             f"{self.cw_max.bit_length()}-bit number")
        ratio, rest = divmod(self.cw_max, self.cw_min)
        if rest or ratio & (ratio - 1):
            raise ValueError("cw_max must be cw_min times a power of two")
        if self.retry_limit < 1:
            raise ValueError("retry_limit must be at least 1")
        try:
            # the fixed point weighs the last stage's mean backoff
            # 2**(retry_limit - 1) * cw_min / 2 as a float
            math.ldexp(self.cw_min, self.retry_limit - 1)
        except OverflowError:
            raise ValueError(f"retry_limit {self.retry_limit} takes the backoff window "
                             f"cw_min * 2**(retry_limit - 1) past the float range "
                             f"(cw_min {self.cw_min})") from None
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be at least 1")
        if self.payload < 0 or self.phy_header < 0 or self.ack_header < 0 or self.mac_header < 0:
            raise ValueError("sizes must be nonnegative")
        L = _slot_length_or_inf(self)
        if L > _L_MAX:
            # name the setting whose default alone brings L under the limit
            culprit = next((f.name for f in fields(self) if _slot_length_or_inf(
                SimpleNamespace(**{**vars(self), f.name: f.default})) <= _L_MAX), None)
            named = f", set by {culprit}," if culprit else ""
            raise ValueError(f"slot length L = {L:.3g} idle slots{named} is past "
                             f"the model's limit of {_L_MAX}")


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


def _slot_length_or_inf(params) -> float:
    # L of any object with Params80211's fields, inf where a part of it
    # leaves the float range
    try:
        return float(slot_length(params))
    except OverflowError:
        return math.inf


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


def solve_fixed_point(params: Params80211) -> DcfFixedPoint:
    """Solve tau = attempts/backoff-slots jointly with eta = 1-(1-tau)^(n-1).

    Bisection on eta: the residual 1-(1-tau(eta))^(n-1) - eta is positive at
    eta=0 and negative at eta=1 (or 0, rounded, at many nodes), and the
    composed map is monotone.

    Stage i's window is 2**i * cw_min, uncapped, while the simulator caps
    each window at cw_max. Capping it here would lower stable_rate_threshold
    by 0.06 % at the defaults (0.0792952 to 0.0792451), 0.39 % at
    n_nodes = 20 and 1.6 % at 50.
    """
    n = params.n_nodes
    stages = params.retry_limit
    eta = 0.0
    if n > 1:
        def resid(eta):
            tau = _tau_of_eta(eta, params.cw_min, stages)
            return 1.0 - (1.0 - tau) ** (n - 1) - eta

        lo, hi = 0.0, 1.0
        if resid(lo) <= 0 or resid(hi) > 0:
            raise FitConvergenceError("fixed-point residual failed to bracket a root")
        while hi - lo > _FIXED_POINT_TOL:
            mid = 0.5 * (lo + hi)
            if resid(mid) > 0:
                lo = mid
            else:
                hi = mid
        eta = 0.5 * (lo + hi)
    tau = _tau_of_eta(eta, params.cw_min, stages)
    if not 0.0 < tau <= 1.0:
        # the mean backoff of cw/2 slots per stage is under one slot at cw = 1
        raise ValueError(f"cw_min = {params.cw_min} with n_nodes = {n} solves to an "
                         f"attempt rate tau = {tau:.4g} per slot, outside (0, 1]")
    p_nt = (1.0 - tau) ** n
    p_t = 1.0 - p_nt
    p_s = tau * (1.0 - eta)
    p_s_cond = p_s / p_t if p_t > 0 else 0.0
    return DcfFixedPoint(tau=tau, eta=eta, p_nt=p_nt, p_t=p_t, p_s=p_s,
                         p_s_cond=p_s_cond, L=slot_length(params))


def stable_rate_threshold(fp: DcfFixedPoint) -> float:
    """Largest sustainable arrival rate, packets per network-calculus slot:
    p_s * L / (p_nt + p_t * L)."""
    return fp.p_s * fp.L / (fp.p_nt + fp.p_t * fp.L)


def impairment_mgf(fp: DcfFixedPoint, theta: float, t: int) -> float:
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
    if t > DEFAULT_T_CAP:
        raise ValueError(f"t={t} beyond cap {DEFAULT_T_CAP}")
    _check_theta(theta, t)
    return _exp_or_diverge(float(_log_mgfs(fp, [theta], t)[0]), theta, t)


def _check_theta(theta: float, t: int) -> None:
    if not 0.0 < theta < math.inf:
        raise ValueError(f"theta must be positive and finite, got {theta}")
    # the first slot is busy, so M_I(t) >= e^theta: past the float range of
    # exp every t overflows (and at p_s_cond = 1, _log_mgfs's log_w is log 0)
    _exp_or_diverge(theta, theta, t)


def _log_mgfs(fp: DcfFixedPoint, thetas, t: int) -> np.ndarray:
    """log M_I(t) of each theta, the float impairment_mgf takes the exp of,
    for thetas that pass _check_theta.

    Each row holds one theta's terms in a lone call's order: case I (rows i,
    columns k), then case II. The theta-free part of each term is built once
    and shared by every row; each row then adds its theta terms in a lone
    call's order of operations and sums on its own (_logsumexp)."""
    L = fp.L
    p_t, p_nt, ps_c = fp.p_t, fp.p_nt, fp.p_s_cond
    log_pt = math.log(p_t) if p_t > 0 else -math.inf
    log_pnt = math.log(p_nt) if p_nt > 0 else -math.inf
    th = np.array(thetas, dtype=np.float64)[:, None]
    # log of the own-success credit factor per complete transmission
    log_w = np.array([[math.log(ps_c * math.exp(-theta) + (1.0 - ps_c))] for theta in thetas])
    cols = L - 1 if p_t > 0 else 0  # case I has no columns k when p_t = 0
    lf = _log_factorials((t - 1) * L, DEFAULT_T_CAP * L)
    i = np.arange(t)
    one = (t - 1) * cols
    lt = np.empty((len(th), one + t))
    if one:
        # case I: last transmission cut off after k in [1, L-1] idle slots
        # (columns), i complete transmissions before it, i in [0, t-2] (rows)
        # each term is ((log_pt + log_comb + i log_pt + xlogy(idle)) +
        # log_wk) + i log_w + theta t, summed in place in that order
        k = np.arange(1, L)
        with np.errstate(over="ignore"):  # -theta * k past the float range is -inf
            log_wk = np.log(ps_c * np.exp(-th * k / L) + (1.0 - ps_c))[:, None, :]
        i1 = i[:-1, None]
        idle = (t - i1 - 1) * L - k
        base = lf[idle + i1]
        base -= lf[i1]
        base -= lf[idle]
        base += log_pt
        base += i1 * log_pt
        base += _xlogy(idle, log_pnt)
        case1 = lt[:, :one].reshape(len(th), t - 1, cols)  # a view of lt
        np.add(base, log_wk, out=case1)
        case1 += (i1.T * log_w)[:, :, None]
        case1 += th[:, :, None] * t
    # case II: horizon ends on idle slots or a complete transmission,
    # i complete transmissions in [0, t-1]
    idle = (t - i - 1) * L
    base = lf[idle + i] - lf[i] - lf[idle] + _xlogy(i, log_pt) + _xlogy(idle, log_pnt)
    case2 = lt[:, one:]
    np.add(base, i * log_w, out=case2)
    case2 += th * t
    return _logsumexp(lt)


def _log_factorials(n_max: int, n_cap: int) -> np.ndarray:
    global _log_fact
    table = _log_fact  # the one checked and returned, whatever another thread stores
    if len(table) <= n_max:  # double it, to at most n_cap entries unless n_max needs more
        new = np.arange(len(table), max(n_max + 1, min(2 * len(table), n_cap)))
        table = _log_fact = np.concatenate((table, _log_factorial(new)))
    return table


def _log_factorial(k: np.ndarray) -> np.ndarray:
    """log(k!) of each integer k >= 0, bit for bit scipy.special.gammaln(k + 1):
    the branches of cephes lgam that x = k + 1 >= 1 reaches, in its order of
    operations. Each log is libm's (math.log), as in cephes; numpy's
    vectorised np.log rounds a few x the other way."""
    x = (k + 1).astype(np.float64)
    out = np.empty(x.shape)
    small = x < 13.0  # cephes multiplies out (x - 1)!, exact below 13
    out[small] = [math.log(math.factorial(n)) for n in k[small].tolist()]
    x = x[~small]
    log_x = np.fromiter(map(math.log, x.tolist()), np.float64, x.size)
    q = (x - 0.5) * log_x - x + _LS2PI
    p = 1.0 / (x * x)
    mid = x < 1000.0  # polevl(p, A, 4) / x
    pm, poly = p[mid], _LGAM_A[0]
    for a in _LGAM_A[1:]:
        poly = poly * pm + a
    q[mid] += poly / x[mid]
    far = ~mid & (x <= 1e8)  # the short series; past 1e8, q alone
    pf = p[far]
    q[far] += ((7.9365079365079365079365e-4 * pf - 2.7777777777777777777778e-3) * pf
               + 0.0833333333333333333333) / x[far]
    out[~small] = q
    return out


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """scipy.special.logsumexp of each row of a 2-D float array, bit for bit:
    each row sums on its own in scipy 1.17's order of operations, without
    the array-API dispatch scipy pays per call."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=-1, keepdims=True)
        mask = a == a_max
        m = mask.sum(axis=-1, keepdims=True)
        e = np.where(mask, -np.inf, a)
        e -= a_max
        np.exp(e, out=e)
        s = e.sum(axis=-1, keepdims=True)
        out = (np.log1p(np.where(s != 0, s / m, s)) + np.log(m) + a_max)[:, 0]
        for row in np.flatnonzero(~np.isfinite(out)):  # scipy's fallback, the direct formula
            out[row] = np.log(np.exp(a[row]).sum())
    return out


def _exp_or_diverge(log_m: float, theta: float, t: int) -> float:
    # a log-MGF that is not finite, or an MGF past the float range, cannot feed a fit
    try:
        if math.isfinite(log_m):
            return math.exp(log_m)
    except OverflowError:
        pass
    raise FitConvergenceError(f"impairment MGF overflows a float at theta={theta}, t={t}")


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


def _settled(prev_s: float, s: float) -> bool:
    return (1.0 - _EPSILON) * prev_s <= s <= (1.0 + _EPSILON) * prev_s


# a module global called once per theta, in table order, so that perfbench's
# traced run can wrap it (its characterize.fit_sigma_rho spans); not public
def fit_sigma_rho(theta: float, ys: list) -> SigmaRho:
    """(sigma, rho) at theta of a finished walk ys = [0, y(1), ..., y(t*)]
    (ImpairmentModel._envelopes), or the error it stored last: rho is the
    settled slope, and sigma >= 0 lifts the line rho*t over every y(t) (checked)."""
    if isinstance(ys[-1], Exception):
        raise ys[-1]
    rho = ys[-1] - ys[-2]
    sigma = max(0.0, max(y - rho * t for t, y in enumerate(ys)))
    if any(y > rho * t + sigma + _SLACK for t, y in enumerate(ys)):
        raise RuntimeError("fitted envelope violated")
    return SigmaRho(theta=theta, sigma=sigma, rho=rho)


def impairment_sigma_rho(params: Params80211, theta: float) -> SigmaRho:
    """(sigma_I, rho_I) of the impairment at this theta, by envelope fitting."""
    return ImpairmentModel(params).sigma_rho(theta)


class ImpairmentModel:
    """Impairment view of one node: fixed point, per-theta (sigma, rho) cache
    and stability threshold. The envelope fit is the expensive step, so
    sigma_rho_table fits every theta of a table in lockstep, and results
    are cached per theta; sigma_rho(theta) is its one-theta call."""

    def __init__(self, params: Params80211):
        self.fixed_point = solve_fixed_point(params)
        self._cache: dict = {}

    def sigma_rho(self, theta: float) -> SigmaRho:
        """The (sigma, rho) fit at theta: sigma_rho_table's one-theta call."""
        return self.sigma_rho_table([theta])[0]

    def sigma_rho_table(self, thetas) -> list:
        """The (sigma, rho) fit at each theta in table order (a repeated theta
        reuses its first fit), raising what the first failing fit raises; the
        fits read the y(t) one walk over t stored for every theta (_envelopes)."""
        thetas = list(thetas)
        todo = list(dict.fromkeys(th for th in thetas if th not in self._cache))
        mean = 1.0 - self.sustainable_rate()
        for theta, ys in zip(todo, self._envelopes(todo)):
            sr = fit_sigma_rho(theta, ys)
            # rho(theta) of a valid envelope is at least the mean rate; a fit
            # below it (y(t) rounded away at tiny theta) fails for large t
            if sr.rho < mean:
                raise FitConvergenceError(
                    f"fitted rho={sr.rho} at theta={theta} is below the "
                    f"impairment's mean rate {mean}")
            # y(1) = 1 exactly (the first slot is busy); a line below it is
            # y(t) rounded down at tiny theta
            if sr.rho + sr.sigma + _SLACK < 1.0:
                raise FitConvergenceError(
                    f"fitted rho + sigma = {sr.rho + sr.sigma} at theta={theta} is "
                    f"below the first slot's impairment 1")
            self._cache[theta] = sr
        return [self._cache[th] for th in thetas]

    def _envelopes(self, thetas) -> list:
        """[0, y(1), y(2), ...] of each theta, y(t) = math.log(impairment_mgf(
        ...)) / theta bit for bit, up to the first t whose slope y(t) - y(t-1)
        settles (_settled), or ending in the error of a y(t) that fails or of
        the t cap. Each t is one _log_mgfs pass over the thetas still fitting,
        split so that a pass holds at most _PASS_TERMS terms or one theta."""
        fp = self.fixed_point
        ys, fitting = [[0.0] for _ in thetas], []
        for j, theta in enumerate(thetas):
            try:
                _check_theta(theta, 1)
                fitting.append(j)
            except (ValueError, FitConvergenceError) as e:
                ys[j].append(e)
        for t in range(1, DEFAULT_T_CAP + 1):
            if not fitting:
                break
            n = max(1, _PASS_TERMS // (t * fp.L))
            log_m = [m for b in range(0, len(fitting), n)
                     for m in _log_mgfs(fp, [thetas[j] for j in fitting[b:b + n]], t).tolist()]
            still = []
            for j, lm in zip(fitting, log_m):
                y = ys[j]
                try:
                    y.append(math.log(_exp_or_diverge(lm, thetas[j], t)) / thetas[j])
                except FitConvergenceError as e:
                    y.append(e)
                    continue
                if t == 1 or not _settled(y[-2] - y[-3], y[-1] - y[-2]):
                    still.append(j)
            fitting = still
        for j in fitting:  # unsettled at the t cap
            ys[j].append(FitConvergenceError(
                f"slope did not stabilize within t_cap={DEFAULT_T_CAP}"))
        return ys

    def sustainable_rate(self) -> float:
        """The stability threshold: a finite bound exists strictly below it."""
        return stable_rate_threshold(self.fixed_point)

