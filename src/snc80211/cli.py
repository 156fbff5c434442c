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
from .characterize import FitConvergenceError, PoissonTraffic
from .config import _RUN_SETTINGS, ConfigError, _replace_sim, load_run_config
from .dcf import ImpairmentModel, solve_fixed_point, stable_rate_threshold
from .sim import COLLISION_MODES, SimConfig, SimResult, _check_runnable, run

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
    srs = ImpairmentModel(cfg.sim.params).sigma_rho_table(thetas)
    rows = [{"theta": th, "sigma": sr.sigma, "rho": sr.rho} for th, sr in zip(thetas, srs)]
    _emit(rows, ["theta", "sigma", "rho"], args)
    return EXIT_OK


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


def _poisson_rate(args, cfg) -> float:
    if cfg.sim.traffic != "poisson":
        raise ValueError(f"{args.command} needs Poisson traffic: the bounds hold "
                         "only for Poisson arrivals")
    return cfg.sim.rate


def _quantile_rows(args, cfg, variants):
    """Quantile rows of these variants for Poisson arrivals at the run's
    rate, one row per entry of --p-list."""
    rate = _poisson_rate(args, cfg)
    p_list = _parse_float_list(args.p_list)
    if not p_list:
        raise ValueError("empty p list")
    return quantile_table(PoissonTraffic(rate), ImpairmentModel(cfg.sim.params),
                          p_list, variants=variants, options=cfg.grid)


def cmd_bounds(args, cfg) -> int:
    variants = _parse_variants(args.variants)
    _emit(_quantile_rows(args, cfg, variants), ["p", *variants], args)
    return EXIT_OK


def cmd_stability(args, cfg) -> int:
    """Can a finite backlog bound be derived at this arrival rate? Only
    strictly below the sustainable service rate p_s L / (p_nt + p_t L)."""
    rate, params = _poisson_rate(args, cfg), cfg.sim.params
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
    _check_runnable(cfg.sim)  # before the bounds, which would call it infeasible
    rows = _quantile_rows(args, cfg, VARIANTS)
    res = run(cfg.sim)
    for row in rows:
        row["empirical"] = _empirical_quantile(res, row["p"])
    _emit(rows, ["p", *VARIANTS, "empirical"], args)
    return EXIT_OK


_FLAGS = {
    "--config": dict(help="INI config path (or env SNC80211_CONFIG)"),
    "--seed": dict(type=int, help="root RNG seed override"),
    "--format": dict(choices=("table", "csv", "json"), default="table"),
    "--out": dict(help="write to this file instead of stdout"),
    "--rate": dict(type=float, help="arrival rate, packets per network-calculus slot"),
    "--p-list": dict(default=DEFAULT_P_LIST),
    "--saturated": dict(action="store_true", help="every node always backlogged"),
    "--duration": dict(type=float, help="simulated seconds"),
    "--replications": dict(type=int),
    "--sample-time": dict(type=float, help="backlog sampling instant, seconds"),
    "--collision-mode": dict(choices=COLLISION_MODES),
    "--thetas": dict(help="comma-separated theta values"),
    "--variants": dict(default=",".join(VARIANTS)),
}
_COMMON = ("--config", "--seed", "--format", "--out")
_SIM = ("--duration", "--replications", "--sample-time", "--collision-mode")
_SUBCOMMANDS = {  # handler, help, flags beyond _COMMON in help order
    "fixed-point": (cmd_fixed_point, "attempt-rate / collision-probability fixed point", ()),
    "characterize": (cmd_characterize, "impairment (sigma, rho) over a theta grid",
                     ("--thetas",)),
    "bounds": (cmd_bounds, "backlog quantile table for the four bounds",
               ("--rate", "--p-list", "--variants")),
    "stability": (cmd_stability, "can a finite backlog bound be derived?", ("--rate",)),
    "simulate": (cmd_simulate, "discrete-event DCF simulation",
                 ("--rate", "--saturated", *_SIM)),
    "compare": (cmd_compare, "bounds table with the empirical column",
                ("--rate", *_SIM, "--p-list")),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="snc80211",
        description="Backlog bounds and simulation for one 802.11 DCF node")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (func, help_, flags) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        for flag in (*_COMMON, *flags):
            sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(func=func)
    return p


def _flag_values(args) -> dict:
    """The SimConfig fields the user's flags set. --saturated wins over
    --rate, and --rate implies Poisson traffic."""
    values = {k: getattr(args, k) for k in _RUN_SETTINGS
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
