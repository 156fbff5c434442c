"""Output checks. Each check takes the CLI's stdout and returns None when the
output is acceptable, or a one-line reason when it is not.

The references come from pinned.json (see pin.py): outputs of the seed
commit, the seed simulator's empirical quantiles and the seed's log-MGF.
"""
from __future__ import annotations

import json
from pathlib import Path

PINNED_PATH = Path(__file__).resolve().parent / "pinned.json"
VARIANTS = ("bound1", "bound2", "bound3", "bound4")
# c04: the impairment rate near theta = 0.1
C04_THETA, C04_RHO, C04_TOL = 0.1, 0.924, 0.005
FIT_TOL = 1e-9  # slack of the envelope fit's own y(t) <= rho t + sigma check
# Loose physics bands for one timed simulator request (2 replications x
# 50 s), as fractions of the target. Over 40-50 seeds at the seed commit the
# standard deviations were: Poisson mean throughput 0.3 %, one node's about
# 1 %; saturated mean throughput 0.1 %, one node's about 2.5 %, tagged
# attempt rate 1.9 %. Every band is at least 6 of them wide.
POISSON_RATE = 0.07
POISSON_MEAN_TOL, POISSON_NODE_TOL = 0.03, 0.10
SATURATED_MEAN_TOL, SATURATED_NODE_TOL, SATURATED_TAU_TOL = 0.05, 0.20, 0.15


def load_pinned() -> dict:
    with open(PINNED_PATH) as fh:
        return json.load(fh)


def envelope_excess(log_mgf, sigma: float, rho: float) -> float:
    """Largest y(t) - (rho t + sigma) over the pinned t = 1..len(log_mgf);
    positive where the (sigma, rho) line dips below the log-MGF."""
    return max(y - rho * t - sigma for t, y in enumerate(log_mgf, start=1))


def seed_envelopes(pinned: dict) -> dict:
    """theta -> (pinned log-MGF, the seed fit's own excess over it).

    The seed's fit only checks t <= t*; at 15 of the 40 default thetas its
    line dips below y(t) further out, so a row may match, but not exceed,
    the seed's excess.
    """
    ref = pinned["characterize"]
    return {row["theta"]: (ys, envelope_excess(ys, row["sigma"], row["rho"]))
            for row, ys in zip(ref["rows"], ref["log_mgf"])}


def _rows(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as e:
        return f"output is not JSON: {e}"


def check_bounds(pinned: dict, rate: str, stdout: str):
    out = _rows(stdout)
    if isinstance(out, str):
        return out
    ref = pinned["bounds"][rate]
    rows = out.get("rows", [])
    if len(rows) != len(ref["rows"]):
        return f"rate {rate}: {len(rows)} rows, pinned {len(ref['rows'])}"
    for row, pin in zip(rows, ref["rows"]):
        p = pin["p"]
        if row.get("p") != p:
            return f"rate {rate}: row p={row.get('p')}, pinned p={p}"
        emp = ref["empirical"][repr(p)]
        for v in VARIANTS:
            cell = row.get(v)
            if not isinstance(cell, int):
                return f"rate {rate} p={p}: {v}={cell!r} is not an integer"
            if cell > pin[v]:
                return f"rate {rate} p={p}: {v}={cell} above pinned {pin[v]}"
            if cell < emp:
                return (f"rate {rate} p={p}: {v}={cell} below the empirical "
                        f"quantile {emp}")
        b1, b2, b3, b4 = (row[v] for v in VARIANTS)
        if not (b4 <= b3 <= b1 and b4 <= b2 <= b1):
            return f"rate {rate} p={p}: ordering broken: {b1} {b2} {b3} {b4}"
    return None


def check_characterize(pinned: dict, stdout: str):
    out = _rows(stdout)
    if isinstance(out, str):
        return out
    ref = pinned["characterize"]
    envelopes = seed_envelopes(pinned)
    rows = out.get("rows", [])
    if len(rows) != len(ref["rows"]):
        return f"{len(rows)} rows, pinned {len(ref['rows'])}"
    for row, pin in zip(rows, ref["rows"]):
        theta, sigma, rho = row.get("theta"), row.get("sigma"), row.get("rho")
        if theta != pin["theta"]:
            return f"theta {theta} where {pin['theta']} is pinned"
        # rho may only fall (a tighter envelope); otherwise the row is pinned
        if rho > pin["rho"] or (rho == pin["rho"] and sigma != pin["sigma"]):
            return (f"theta {theta}: (sigma, rho) = ({sigma}, {rho}), pinned "
                    f"({pin['sigma']}, {pin['rho']})")
        ys, seed_excess = envelopes[theta]
        excess = envelope_excess(ys, sigma, rho)
        if excess > max(seed_excess, 0.0) + FIT_TOL:
            return (f"theta {theta}: log-MGF above rho t + sigma by {excess:.3g}"
                    f" (seed: {max(seed_excess, 0.0):.3g})")
    near = min(rows, key=lambda r: abs(r["theta"] - C04_THETA))
    if abs(near["rho"] - C04_RHO) > C04_TOL:
        return f"rho at theta {near['theta']} is {near['rho']}, not {C04_RHO} +- {C04_TOL}"
    return None


def check_simulate(pinned: dict, name: str, replications: int, stdout: str):
    out = _rows(stdout)
    if isinstance(out, str):
        return out
    rows, summary = out.get("rows", []), out.get("summary", {})
    if [r.get("replication") for r in rows] != list(range(replications)):
        return f"expected {replications} replication rows"
    if any(not isinstance(r.get("backlog"), int) or r["backlog"] < 0
           for r in rows):
        return "a backlog is not a nonnegative integer"
    thr = summary.get("throughput_per_node") or []
    if not thr:
        return "no per-node throughput"
    mean = sum(thr) / len(thr)
    if name == "sim-poisson":
        target, mean_tol, node_tol = POISSON_RATE, POISSON_MEAN_TOL, POISSON_NODE_TOL
    else:
        # the saturated node serves close to the analytic threshold and
        # attempts at close to the fixed point's tau; mean_backlog there is
        # the queue sentinel, so it is not checked
        fp = pinned["fixed_point"]
        target, mean_tol, node_tol = (fp["threshold"], SATURATED_MEAN_TOL,
                                      SATURATED_NODE_TOL)
        rate = summary.get("tagged_attempt_rate", 0.0)
        if abs(rate - fp["tau"]) > SATURATED_TAU_TOL * fp["tau"]:
            return f"tagged attempt rate {rate} far from tau {fp['tau']}"
    if abs(mean - target) > mean_tol * target:
        return f"mean per-node throughput {mean} far from {target}"
    if any(abs(x - target) > node_tol * target for x in thr):
        return f"a per-node throughput in {thr} is far from {target}"
    frac = summary.get("tagged_collision_fraction", -1.0)
    if not 0.0 <= frac <= 1.0:
        return f"collision fraction {frac} outside [0, 1]"
    return None


def check_pinned_run(pinned: dict, name: str, stdout: str):
    if stdout != pinned["sim"][name]:
        return f"{name}: fixed (config, seed) output differs from the pinned bytes"
    return None


def check(pinned: dict, name: str, argv, stdout: str):
    """Check the output of one timed request of workload `name`."""
    if name == "bounds":
        return check_bounds(pinned, argv[argv.index("--rate") + 1], stdout)
    if name == "characterize":
        return check_characterize(pinned, stdout)
    reps = int(argv[argv.index("--replications") + 1])
    return check_simulate(pinned, name, reps, stdout)
