"""Command-line front end.

Subcommands: fixed-point, characterize, bounds, stability, simulate,
compare. Each accepts --config/--seed/--format/--out; outputs are
deterministic for a fixed (config, seed).

Exit codes: 0 success, 2 configuration or usage errors, 3 infeasible bound
queries, 4 numerical non-convergence.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace

from .bounds import VARIANTS, InfeasibleBoundError, quantile_table, rate_to_mbps
from .characterize import DEFAULT_EPSILON, FitConvergenceError, PoissonTraffic, _check_rate
from .config import ConfigError, _replace_sim, load_run_config
from .dcf import ImpairmentModel, solve_fixed_point, stable_rate_threshold
from .sim import COLLISION_MODES, SimConfig, SimResult, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CONVERGENCE = 4

DEFAULT_P_LIST = "0.9,0.8,0.7,0.6,0.5,0.4,0.3,0.2,0.1,0.05"


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".6g")
    if isinstance(v, list):
        return ",".join(_fmt_cell(x) for x in v)
    return str(v)


def _emit_table(rows, columns) -> str:
    cells = [[_fmt_cell(r.get(c, "")) for c in columns] for r in rows]
    widths = [max([len(c)] + [row[i] and len(row[i]) or 0 for row in cells])
              for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _emit_csv(rows, columns) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for r in rows:
        writer.writerow([r.get(c, "") for c in columns])
    return buf.getvalue()


def _emit(rows, columns, args, summary=None):
    if args.format == "json":
        payload = {"rows": rows}
        if summary is not None:
            payload["summary"] = summary
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        text = _emit_csv(rows, columns)
    else:
        text = _emit_table(rows, columns)
        if summary is not None:
            text += "".join(f"{k}: {_fmt_cell(v)}\n" for k, v in summary.items())
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise ValueError(f"cannot write {args.out!r}: {e.strerror}") from e
    else:
        sys.stdout.write(text)


def _parse_float_list(text: str):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as e:
        raise ValueError(f"cannot parse float list {text!r}") from e


def cmd_fixed_point(args, cfg) -> int:
    params = cfg.sim.params
    if args.n is not None:
        params = replace(params, n_nodes=args.n)
    if args.payload is not None:
        params = replace(params, payload=args.payload)
    fp = solve_fixed_point(params)
    row = {"n": params.n_nodes, "payload": params.payload, "L": fp.L,
           "tau": fp.tau, "eta": fp.eta, "p_nt": fp.p_nt, "p_t": fp.p_t,
           "p_s": fp.p_s, "p_s_cond": fp.p_s_cond}
    _emit([row], list(row), args)
    return EXIT_OK


def cmd_characterize(args, cfg) -> int:
    if args.thetas is not None:
        thetas = _parse_float_list(args.thetas)
    else:
        thetas = list(cfg.grid.thetas())
    if not thetas:
        raise ValueError("empty theta grid")
    if any(th <= 0 for th in thetas):
        raise ValueError("theta values must be positive")
    model = ImpairmentModel(cfg.sim.params, epsilon=args.epsilon)
    rows = []
    for th in thetas:
        sr = model.sigma_rho(th)
        rows.append({"theta": th, "sigma": sr.sigma, "rho": sr.rho})
    _emit(rows, ["theta", "sigma", "rho"], args)
    return EXIT_OK


def _check_p_list(p_list):
    if not p_list:
        raise ValueError("empty p list")
    for p in p_list:
        if not 0.0 < p < 1.0:
            raise ValueError(f"p={p} must lie strictly between 0 and 1")


def _parse_variants(text: str):
    variants = tuple(v.strip() for v in text.split(",") if v.strip())
    if not variants:
        raise ValueError("empty variant list")
    if len(set(variants)) < len(variants):
        raise ValueError(f"repeated variant in {text!r}")
    for v in variants:
        if v not in VARIANTS:
            raise ValueError(f"unknown variant {v!r}; choose from {VARIANTS}")
    return variants


def _quantile_rows(args, cfg, variants):
    """Quantile rows of these variants for Poisson arrivals at the run's
    rate, one row per entry of --p-list."""
    p_list = _parse_float_list(args.p_list)
    _check_p_list(p_list)
    return quantile_table(PoissonTraffic(cfg.sim.rate), ImpairmentModel(cfg.sim.params),
                          p_list, variants=variants, options=cfg.grid)


def cmd_bounds(args, cfg) -> int:
    variants = _parse_variants(args.variants)
    _emit(_quantile_rows(args, cfg, variants), ["p", *variants], args)
    return EXIT_OK


def cmd_stability(args, cfg) -> int:
    """Can a finite backlog bound be derived at this arrival rate? Only
    strictly below the sustainable service rate p_s L / (p_nt + p_t L)."""
    rate, params = cfg.sim.rate, cfg.sim.params
    _check_rate(rate)
    threshold = stable_rate_threshold(solve_fixed_point(params))
    row = {"arrival_rate": rate,
           "arrival_mbps": rate_to_mbps(rate, params),
           "threshold": threshold,
           "threshold_mbps": rate_to_mbps(threshold, params),
           "verdict": "stable-bound-derivable" if rate < threshold else "not-derivable"}
    _emit([row], list(row), args)
    return EXIT_OK


def _sim_rows(sc: SimConfig, res: SimResult):
    return [{"replication": i, "time": sc.sample_time, "backlog": int(b)}
            for i, b in enumerate(res.backlogs)]


def cmd_simulate(args, cfg) -> int:
    res = run(cfg.sim)
    summary = {"mean_backlog": res.mean_backlog,
               "drops": res.drops,
               "tagged_attempt_rate": res.tagged_attempt_rate,
               "tagged_collision_fraction": res.tagged_collision_fraction,
               "throughput_per_node": [float(x) for x in res.throughput_per_node]}
    _emit(_sim_rows(cfg.sim, res), ["replication", "time", "backlog"], args,
          summary=summary)
    return EXIT_OK


def _empirical_quantile(res: SimResult, p: float) -> int:
    x = 0
    while res.empirical_tail(x) > p:
        x += 1
    return x


def cmd_compare(args, cfg) -> int:
    if cfg.sim.traffic != "poisson":
        raise ValueError("compare needs Poisson traffic: the bounds hold only "
                         "for Poisson arrivals")
    rows = _quantile_rows(args, cfg, VARIANTS)
    res = run(cfg.sim)
    for row in rows:
        row["empirical"] = _empirical_quantile(res, row["p"])
    _emit(rows, ["p", *VARIANTS, "empirical"], args)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config",
                        help="INI config path (or env SNC80211_CONFIG)")
    common.add_argument("--seed", type=int, help="root RNG seed override")
    common.add_argument("--format", choices=("table", "csv", "json"),
                        default="table")
    common.add_argument("--out", help="write to this file instead of stdout")
    rate = argparse.ArgumentParser(add_help=False)
    rate.add_argument("--rate", type=float,
                      help="arrival rate, packets per network-calculus slot")
    p_list = argparse.ArgumentParser(add_help=False)
    p_list.add_argument("--p-list", dest="p_list", default=DEFAULT_P_LIST)
    saturated = argparse.ArgumentParser(add_help=False)
    saturated.add_argument("--saturated", action="store_true",
                           help="every node always backlogged")
    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--duration", type=float, help="simulated seconds")
    sim.add_argument("--replications", type=int)
    sim.add_argument("--sample-time", type=float, dest="sample_time",
                     help="backlog sampling instant, seconds")
    sim.add_argument("--collision-mode", choices=COLLISION_MODES,
                     dest="collision_mode")

    p = argparse.ArgumentParser(
        prog="snc80211",
        description="Backlog bounds and simulation for one 802.11 DCF node")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fixed-point", parents=[common],
                        help="attempt-rate / collision-probability fixed point")
    sp.add_argument("--n", type=int, help="number of contending nodes")
    sp.add_argument("--payload", type=int, help="payload bytes")
    sp.set_defaults(func=cmd_fixed_point)

    sp = sub.add_parser("characterize", parents=[common],
                        help="impairment (sigma, rho) over a theta grid")
    sp.add_argument("--thetas", help="comma-separated theta values")
    sp.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                    help="envelope-fit convergence tolerance")
    sp.set_defaults(func=cmd_characterize)

    sp = sub.add_parser("bounds", parents=[common, rate, p_list],
                        help="backlog quantile table for the four bounds")
    sp.add_argument("--variants", default=",".join(VARIANTS))
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("stability", parents=[common, rate],
                        help="can a finite backlog bound be derived?")
    sp.set_defaults(func=cmd_stability)

    sp = sub.add_parser("simulate", parents=[common, rate, saturated, sim],
                        help="discrete-event DCF simulation")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("compare", parents=[common, rate, sim, p_list],
                        help="bounds table with the empirical column")
    sp.set_defaults(func=cmd_compare)
    return p


# SimConfig fields that a flag of the same name sets, where the subcommand
# declares that flag
_SIM_FLAGS = ("rate", "duration", "replications", "sample_time", "collision_mode", "seed")


def _flag_values(args) -> dict:
    """The SimConfig fields the user's flags set. --saturated wins over
    --rate, and --rate implies Poisson traffic."""
    values = {k: getattr(args, k) for k in _SIM_FLAGS
              if getattr(args, k, None) is not None}
    if getattr(args, "saturated", False):
        values["traffic"] = "saturated"
    elif "rate" in values:
        values["traffic"] = "poisson"
    return values


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_run_config(args.config)
        cfg = replace(cfg, sim=_replace_sim(cfg.sim, **_flag_values(args)))
        return args.func(args, cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleBoundError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except FitConvergenceError as e:
        print(f"did not converge: {e}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
