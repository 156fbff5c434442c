"""Write pinned.json: the reference outputs the benchmark checks against.

    python3 perfbench/pin.py

The pins were made once from the seed commit of the package. Regenerating
them from later code would let a wrong output pass, so rerun this only to
re-pin on purpose, and record why.

Pinned per workload:
  bounds        the quantile table at each rate in BOUND_RATES, and the
                simulator's empirical quantile at each (rate, p) from
                100 replications x 50 s, seed 7 (the c10 configuration);
  characterize  the default 40-theta (theta, sigma, rho) rows, and the
                log-MGF envelope y(t) of each theta for t = 1..LOG_MGF_T;
  sim-*         the full stdout of the fixed (config, seed) run, and the
                fixed point's tau and stability threshold.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import forkcall
import run
import workloads

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned.json"
LOG_MGF_T = 128  # theta_max * 128 = 640 stays below exp overflow at 709
EMPIRICAL = dict(duration=50.0, replications=100, sample_time=50.0, seed=7)


def _stdout(cli, argv) -> str:
    reply = forkcall.call(cli, argv, timeout=600.0)
    if reply.error or reply.rc != 0:
        raise SystemExit(f"{argv}: rc={reply.rc} {reply.error}")
    return reply.stdout


def _empirical_quantiles(rate: float, p_list) -> dict:
    from snc80211.sim import SimConfig, run
    res = run(SimConfig(traffic="poisson", rate=rate, **EMPIRICAL))
    out = {}
    for p in p_list:
        x = 0
        while res.empirical_tail(x) > p:
            x += 1
        out[repr(p)] = x
    return out


def main() -> None:
    cli = forkcall.load_cli()
    from snc80211.dcf import Params80211, impairment_mgf, solve_fixed_point
    from snc80211.dcf import stable_rate_threshold

    p_list = [float(p) for p in cli.DEFAULT_P_LIST.split(",")]
    bounds = {}
    for rate in workloads.BOUND_RATES:
        rows = json.loads(_stdout(cli, workloads.bounds_argv(rate)))["rows"]
        bounds[rate] = {"rows": rows,
                        "empirical": _empirical_quantiles(float(rate), p_list)}
        print("pinned bounds", rate, flush=True)

    fp = solve_fixed_point(Params80211())
    rows = json.loads(_stdout(cli, ["characterize", *workloads.JSON]))["rows"]
    log_mgf = [[math.log(impairment_mgf(fp, r["theta"], t)) / r["theta"]
                for t in range(1, LOG_MGF_T + 1)] for r in rows]

    sim = {name: _stdout(cli, workloads.pinned_argv(name))
           for name in workloads.PINNED_SIM_SEED}
    pinned = {
        "commit": run.git_commit(),
        "p_list": p_list,
        "bounds": bounds,
        "characterize": {"rows": rows, "log_mgf": log_mgf},
        "sim": sim,
        "fixed_point": {"tau": fp.tau, "threshold": stable_rate_threshold(fp)},
    }
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED}")


if __name__ == "__main__":
    main()
