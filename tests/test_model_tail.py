"""Every bound against the exact backlog tail of the model it is derived from.

The model is a Markov chain on idle-slot boundaries. Each boundary starts
an idle slot with probability p_nt, or an L-slot transmission with
probability p_t, which is this node's success with probability p_s|t.
Poisson arrivals come at rate/L per idle slot. One step takes the backlog
to W' = max(0, W + A - D), with A the arrivals over the step and D = 1 for
an own success: service counts at the end of an own transmission, the
pessimistic side of the fluid credit k/L that the impairment envelope
gives a cut-off one.

W drops by at most one a step, so the chain is of M/G/1 type. Ramaswami's
stable recursion ("A stable recursion for the steady state vector in
Markov chains of M/G/1 type", Stochastic Models, 1988) builds its
stationary law from nonnegative sums: across the cut between levels n and
n + 1, the flow down, pi_{n+1} a_0, equals the flow up,
sum_{j <= n} pi_j Abar_{n+2-j}, where a_k = P{A - D + 1 = k} and Abar_k is
its tail. A step from level 0, max(0, A - D), crosses every cut as a step
from level 1 does, so level 0 needs no term of its own.
"""
import math

import numpy as np
import pytest

from snc80211.bounds import VARIANTS, build_bound, quantile
from snc80211.characterize import PoissonTraffic
from snc80211.dcf import ImpairmentModel, Params80211

_K = 40  # arrivals per step past this have probability below 1e-50 at any rate up to 1


def _step_law(fp, rate):
    """a[k] = P{A - D + 1 = k} for one step of the chain, k = 0.._K + 1."""
    k = np.arange(_K + 1)
    log_fact = np.array([math.lgamma(n + 1.0) for n in k])

    def poisson(mean):
        return np.exp(k * math.log(mean) - mean - log_fact)

    idle, busy = poisson(rate / fp.L), poisson(rate)
    a = np.zeros(_K + 2)
    a[1:] += fp.p_nt * idle + fp.p_t * (1.0 - fp.p_s_cond) * busy  # no service
    a[:-1] += fp.p_t * fp.p_s_cond * busy  # an own success serves one packet
    assert a.sum() == pytest.approx(1.0, rel=1e-12)
    return a


def _stationary(a, n_min):
    """pi_0..pi_N by the cut equation, N past n_min and far enough that
    pi_N is below 1e-25 of the mass: the levels past N, whose mass falls
    geometrically, are left out. Each level is one dot product of the
    levels below it, latest first, with Abar_2, Abar_3, ..."""
    abar = np.cumsum(a[::-1])[::-1][2:]
    pi, n, total = np.zeros(1024), 0, 1.0
    pi[0] = 1.0
    while n < n_min or pi[n] > 1e-25 * total:
        if n + 1 == pi.size:
            pi = np.concatenate((pi, np.zeros(pi.size)))
        lo = max(0, n + 1 - abar.size)
        n += 1
        pi[n] = pi[n - 1:lo - 1 if lo else None:-1] @ abar[:n - lo] / a[0]
        total += pi[n]
    return pi[:n + 1] / total


def _model_tail(fp, rate, x_max):
    """P{W > x} under the stationary law, x = 0..x_max and beyond."""
    pi = _stationary(_step_law(fp, rate), x_max + 1)
    return np.cumsum(pi[::-1])[::-1][1:]


def test_recursion_matches_a_power_iteration(fixed_point):
    a = _step_law(fixed_point, 0.02)
    n = 40  # levels 0..n, the chain's mass past n held at n
    P = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for k, a_k in enumerate(a):
            P[i, min(max(i - 1 + k, 0), n)] += a_k
    pi = np.zeros(n + 1)
    pi[0] = 1.0
    for _ in range(20_000):
        pi = pi @ P
    exact = _stationary(a, n)
    assert exact[n + 1:].sum() < 1e-20
    np.testing.assert_allclose(pi[:25], exact[:25], rtol=1e-9, atol=1e-20)


@pytest.mark.parametrize("rate, p, q", [(0.04, 0.05, 4), (0.04, 1e-6, 19),
                                        (0.07, 0.05, 23), (0.07, 1e-6, 106)])
def test_model_quantiles(fixed_point, rate, p, q):
    # the "exact model" column of the README's simulator / model / bound table
    tail = _model_tail(fixed_point, rate, 200)
    assert int(np.argmax(tail <= p)) == q


def _assert_every_bound_on_or_above_the_model_tail(impairment, rate):
    # every x up to each variant's 1e-6 quantile
    bounds = {v: build_bound(v, PoissonTraffic(rate), impairment) for v in VARIANTS}
    reach = {v: quantile(b, 1e-6) for v, b in bounds.items()}
    tail = _model_tail(impairment.fixed_point, rate, max(reach.values()))
    for v, bound in bounds.items():
        below = [x for x in range(reach[v] + 1) if bound.evaluate(x) < tail[x]]
        assert not below, f"{v} at rate {rate} lies below the model tail at x = {below[:5]}"


@pytest.mark.parametrize("rate", [0.02, 0.04, 0.07, 0.075])
def test_every_bound_lies_on_or_above_the_model_tail(impairment, rate):
    _assert_every_bound_on_or_above_the_model_tail(impairment, rate)


@pytest.mark.parametrize("cw_min", [16, 32])
@pytest.mark.parametrize("payload", [0, 1500])
@pytest.mark.parametrize("n_nodes", [2, 5, 20, 50])
def test_every_bound_lies_on_or_above_the_model_tail_across_the_mac(n_nodes, payload, cw_min):
    # the soundness sweep: few to many nodes, short and long L, two window
    # ladders, at light, high and near-threshold load
    impairment = ImpairmentModel(Params80211(n_nodes=n_nodes, payload=payload,
                                             cw_min=cw_min, cw_max=32 * cw_min))
    for load in (0.3, 0.7, 0.9):
        _assert_every_bound_on_or_above_the_model_tail(
            impairment, load * impairment.sustainable_rate())
