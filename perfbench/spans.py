"""Tracing for the traced run: spans around calls into each layer, and the
per-layer metrics computed from them.

install() runs in a request process. It replaces each public function at
the name its caller looks it up by (a module global or a class attribute),
so nothing under src/ changes. A span is [name, start, end, parent, attrs];
the name's first component is the layer: cli, dcf, characterize, bounds,
sim.
"""
from __future__ import annotations

import functools
import time
from collections import Counter

from checks import FIT_TOL, envelope_excess

LAYERS = ("cli", "dcf", "characterize", "bounds", "sim")
INDEPENDENT_VARIANTS = ("bound3", "bound4")  # independence-based convolution


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = [-1]

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace owner.attr by a wrapper that records one span per call.

        before(args, kwargs) returns the span's attrs; after(result, attrs)
        returns them updated with what the result shows.
        """
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1],
                   before(args, kwargs) if before else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after:
                rec[4] = after(out, rec[4])
            return out

        setattr(owner, attr, traced)


def install() -> Recorder:
    import snc80211.bounds as bounds
    import snc80211.cli as cli
    import snc80211.dcf as dcf

    def mgf_before(args, kwargs):
        return {"t": args[2] if len(args) > 2 else kwargs["t"]}

    def evaluate_before(args, kwargs):
        bound = args[0]
        x = args[1] if len(args) > 1 else kwargs["x"]
        return {"computed": x not in bound.meta["best"],
                "indep": bound.variant in INDEPENDENT_VARIANTS,
                "points": bound.meta["grid_points"]}

    def build_before(args, kwargs):
        opts = args[3] if len(args) > 3 else kwargs.get("options")
        opts = opts or bounds.GridOptions()
        return {"total": opts.theta_points ** 2 * opts.r_points}

    def fit_after(sr, attrs):
        return {"theta": sr.theta, "sigma": sr.sigma, "rho": sr.rho}

    def build_after(bound, attrs):
        return {**attrs, "points": bound.meta["grid_points"]}

    def run_before(args, kwargs):
        cfg = args[0] if args else kwargs["config"]
        t_end = round(cfg.duration * 1e6 / cfg.params.idle_slot)
        return {"slots_per_tx": t_end / dcf.slot_length(cfg.params)}

    def run_after(res, attrs):
        # throughput_per_node is successes * L / t_end averaged over the
        # replications; invert it to successful exchanges per replication
        return {"reps": res.replications,
                "tx": sum(res.throughput_per_node) * attrs["slots_per_tx"]}

    rec = Recorder()
    rec.wrap(cli, "main", "cli.main")
    rec.wrap(cli, "quantile_table", "bounds.quantile_table")
    rec.wrap(cli, "run", "sim.run", before=run_before, after=run_after)
    rec.wrap(bounds, "build_bound", "bounds.build_bound",
             before=build_before, after=build_after)
    rec.wrap(bounds, "quantile", "bounds.quantile")
    rec.wrap(bounds.BacklogBound, "evaluate", "bounds.evaluate",
             before=evaluate_before)
    rec.wrap(dcf.ImpairmentModel, "sigma_rho", "dcf.sigma_rho")
    rec.wrap(dcf, "fit_sigma_rho", "characterize.fit_sigma_rho", after=fit_after)
    rec.wrap(dcf, "impairment_mgf", "dcf.impairment_mgf", before=mgf_before)
    rec.wrap(dcf, "solve_fixed_point", "dcf.solve_fixed_point")
    return rec


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(requests, envelopes) -> dict:
    """Per-layer metrics from the span lists of the traced requests.

    Counts and times are per request; self time is a span's duration minus
    that of its direct children. envelopes maps theta to (log-MGF, seed
    excess) as checks.seed_envelopes gives it; a fit at such a theta is
    unsound when its line dips below the log-MGF.
    """
    calls, busy, self_s, layer_s = Counter(), Counter(), Counter(), Counter()
    t_stars, fits_under_sigma_rho = [], 0
    checked_fits = unsound_fits = 0
    computed = Counter()        # evaluate misses, points and time by kind
    grid_points, grid_fracs = [], []
    quantile_evals = 0
    reps = tx = 0.0
    for spans in requests:
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        fit_t = {}
        for i, (name, t0, t1, parent, attrs) in enumerate(spans):
            dur = t1 - t0
            own = dur - child[i]
            calls[name] += 1
            busy[name] += dur
            self_s[name] += own
            layer_s[name.split(".")[0]] += own
            pname = spans[parent][0] if parent >= 0 else None
            if name == "dcf.impairment_mgf" and pname == "characterize.fit_sigma_rho":
                fit_t[parent] = max(fit_t.get(parent, 0), attrs["t"])
            elif name == "characterize.fit_sigma_rho":
                fits_under_sigma_rho += pname == "dcf.sigma_rho"
                if attrs["theta"] in envelopes:
                    ys = envelopes[attrs["theta"]][0]
                    checked_fits += 1
                    unsound_fits += envelope_excess(
                        ys, attrs["sigma"], attrs["rho"]) > FIT_TOL
            elif name == "bounds.evaluate":
                quantile_evals += pname == "bounds.quantile"
                if attrs["computed"]:
                    kind = "indep" if attrs["indep"] else "minplus"
                    computed["n"] += 1
                    computed["points"] += attrs["points"]
                    computed[kind] += dur
            elif name == "bounds.build_bound":
                grid_points.append(attrs["points"])
                grid_fracs.append(attrs["points"] / attrs["total"])
            elif name == "sim.run":
                reps += attrs["reps"]
                tx += attrs["tx"]
        t_stars.extend(fit_t.values())
    n = len(requests)
    request_s = busy["cli.main"]
    out = {
        "dcf.impairment_mgf.calls": calls["dcf.impairment_mgf"] / n,
        "dcf.impairment_mgf.busy_s": busy["dcf.impairment_mgf"] / n,
        "characterize.fit_sigma_rho.calls": calls["characterize.fit_sigma_rho"] / n,
        "characterize.fit_sigma_rho.self_s": self_s["characterize.fit_sigma_rho"] / n,
        "characterize.t_star.mean": _ratio(sum(t_stars), len(t_stars)),
        "characterize.t_star.max": float(max(t_stars, default=0)),
        "characterize.unsound_fit_frac": _ratio(unsound_fits, checked_fits),
        "dcf.sigma_rho.calls": calls["dcf.sigma_rho"] / n,
        "dcf.sigma_rho.hit_frac": _ratio(
            calls["dcf.sigma_rho"] - fits_under_sigma_rho, calls["dcf.sigma_rho"]),
        "dcf.solve_fixed_point.busy_s": busy["dcf.solve_fixed_point"] / n,
        "bounds.build_bound.calls": calls["bounds.build_bound"] / n,
        "bounds.build_bound.self_s": self_s["bounds.build_bound"] / n,
        "bounds.grid_points": _ratio(sum(grid_points), len(grid_points)),
        "bounds.grid_feasible_frac": _ratio(sum(grid_fracs), len(grid_fracs)),
        "bounds.evaluate.calls": calls["bounds.evaluate"] / n,
        "bounds.evaluate.computed": computed["n"] / n,
        "bounds.evaluate.minplus_s": computed["minplus"] / n,
        "bounds.evaluate.indep_s": computed["indep"] / n,
        "bounds.evaluate.ns_per_point": 1e9 * _ratio(
            computed["minplus"] + computed["indep"], computed["points"]),
        "bounds.quantile.calls": calls["bounds.quantile"] / n,
        "bounds.quantile.busy_s": busy["bounds.quantile"] / n,
        "bounds.evals_per_quantile": _ratio(quantile_evals, calls["bounds.quantile"]),
        "sim.run.busy_s": busy["sim.run"] / n,
        "sim.s_per_rep": _ratio(busy["sim.run"], reps),
        "sim.tx_per_rep": _ratio(tx, reps),
        "sim.tx_per_s": _ratio(tx, busy["sim.run"]),
        "cli.self_s": self_s["cli.main"] / n,
    }
    for layer in LAYERS:
        out[f"layer.{layer}.share"] = _ratio(layer_s[layer], request_s)
    return out
