"""Benchmark runner: closed-loop CLI requests against one workload.

    python3 perfbench/run.py --workload bounds --seed 1 --seconds 25 --trace 0

One request is in flight at a time. Each is one `snc80211.cli.main` call in
a process forked from this one after import, and its output is checked
before the next request starts. With --trace 0 the run reports the
end-to-end metrics of BENCHMARK.json; with --trace 1 it alternates untraced
and traced requests and reports the per-layer metrics. The last line of
stdout is the result object; details, latencies and spans go to
.bench_out/ in the checkout.

The shared host this was built on changes speed by up to 1.6x from one
few-second stretch to the next, and by a third over an hour. So typical
request times are scaled to a reference host speed: a fixed calibration
kernel runs before each request, and the run's median latency and request
rate are scaled by CAL_REF_S over the median kernel time. The p90 latency
is not scaled: it comes from the host's slow stretches, which the median
kernel time does not describe, and scaling it added noise. Set-up time is
not scaled either; the kernel did not track it. The raw figures are
printed too and kept in the details file.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import checks
import forkcall
import spans
import workloads

OUT_DIR = forkcall.ROOT / ".bench_out"
SETUP_SAMPLES = 5
CAL_REF_S = 0.03  # calibration kernel seconds at the reference host speed
# set-up as a user pays it: import the package (numpy, scipy included) and
# solve the fixed point, in a fresh interpreter
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import snc80211
snc80211.solve_fixed_point(snc80211.Params80211())
print(time.perf_counter() - t0)
"""


def calibrate() -> float:
    """Seconds for a fixed kernel of interpreted loops and numpy vector
    math, the two kinds of work the requests do."""
    import numpy as np
    data = np.random.default_rng(0).random(50_000)
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(100_000):
        acc += i * i % 7
        table[i & 1023] = acc
    for _ in range(20):
        np.log(np.exp(data) + 1.0).sum()
    return time.perf_counter() - t0


def setup_once() -> float:
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(forkcall.SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not (forkcall.ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=forkcall.ROOT,
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(forkcall.SRC.rglob("*.py")):
        h.update(str(path.relative_to(forkcall.SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(name: str, seed: int) -> dict:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": git_commit(),
            "src_sha256": _src_sha256(), "workload": name, "seed": seed,
            "seed_used": workloads.uses_seed(name)}


def _reply_error(reply, pinned, name, argv):
    if reply.error:
        return reply.error.strip().splitlines()[-1]
    if reply.rc != 0:
        return f"exit code {reply.rc}"
    return checks.check(pinned, name, argv, reply.stdout)


def timed_loop(cli, pinned, name: str, seed: int, seconds: float,
               traced: bool, cal: list, setup: list | None) -> dict:
    """Run whole request cycles until `seconds` have passed, timing the
    calibration kernel into `cal` before each request.

    Traced runs send each request twice, untraced and traced, swapping the
    order every other request so drift hits both alike. Unless `setup` is
    None, SETUP_SAMPLES set-up times go into it, spread evenly over the
    run between cycles, so that their median spans the host's fast and
    slow stretches.
    """
    res = {"attempted": 0, "failed": 0, "peak_kb": 0, "errors": [],
           "spans": [], "plain": [], "traced": [], "busy_s": 0.0}
    start = time.perf_counter()
    pairs = 0
    for cycle in workloads.cycles(name, seed):
        elapsed = time.perf_counter() - start
        if setup is not None and elapsed >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(setup_once())
        for argv in cycle:
            modes = [None, spans.install] if traced else [None]
            if pairs % 2:
                modes.reverse()
            pairs += 1
            for install in modes:
                cal.append(calibrate())
                t0 = time.perf_counter()
                reply = forkcall.call(cli, argv, install)
                err = _reply_error(reply, pinned, name, argv)
                dt = time.perf_counter() - t0
                res["attempted"] += 1
                res["peak_kb"] = max(res["peak_kb"], reply.maxrss_kb)
                res["busy_s"] += dt
                if err:
                    res["failed"] += 1
                    res["errors"].append(f"{' '.join(argv)}: {err}")
                elif install:
                    res["traced"].append(dt)
                    res["spans"].append(reply.spans)
                else:
                    res["plain"].append(dt)
        if time.perf_counter() - start >= seconds:
            break
    while setup is not None and len(setup) < SETUP_SAMPLES:
        setup.append(setup_once())
    return res


def _p90(values) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(res, setup: list, scale: float = 1.0) -> dict:
    """End-to-end metrics, with the median latency and the request rate
    scaled by `scale`."""
    lat = res["plain"]
    return {"setup_s": statistics.median(setup),
            "latency_s.p50": _median(lat) * scale,
            "latency_s.p90": _p90(lat),
            "req_per_s": len(lat) / (res["busy_s"] * scale),
            "ok_frac": len(lat) / res["attempted"],
            "peak_rss_mb": res["peak_kb"] / 1024.0}


def per_layer(res, envelopes) -> dict:
    out = spans.layer_metrics(res["spans"], envelopes)
    plain = _median(res["plain"])
    out["trace.overhead_frac"] = _median(res["traced"]) / plain - 1.0 if plain else 0.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = forkcall.load_cli()
    with open(forkcall.ROOT / "BENCHMARK.json") as fh:
        section = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    pinned = checks.load_pinned()
    env = environment(args.workload, args.seed)

    errors = []
    fixed = workloads.pinned_argv(args.workload)
    if fixed is not None:
        reply = forkcall.call(cli, fixed)
        err = (reply.error or (reply.rc != 0 and f"exit code {reply.rc}")
               or checks.check_pinned_run(pinned, args.workload, reply.stdout))
        if err:
            errors.append(f"pinned run {' '.join(fixed)}: {err}")

    cal, setup = [], None if args.trace else []
    res = timed_loop(cli, pinned, args.workload, args.seed,
                     args.seconds, bool(args.trace), cal, setup)
    errors += res["errors"]
    scale = CAL_REF_S / statistics.median(cal)
    raw = {} if args.trace else end_to_end(res, setup)
    metrics = (per_layer(res, checks.seed_envelopes(pinned)) if args.trace
               else end_to_end(res, setup, scale))
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not "
              "match BENCHMARK.json", file=sys.stderr)
        return 3

    OUT_DIR.mkdir(exist_ok=True)
    detail = {"env": env, "metrics": metrics, "raw_metrics": raw,
              "scale": scale, "calibration_s": cal, "setup_s": setup,
              "attempted": res["attempted"], "failed": res["failed"],
              "latency_s": res["plain"], "traced_latency_s": res["traced"],
              "errors": errors, "spans": res["spans"]}
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(detail) + "\n")

    for err in errors[:10]:
        print(f"check failed: {err}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"requests {res['attempted']} failed {res['failed']} "
          f"untraced {len(res['plain'])} traced {len(res['traced'])} "
          f"busy {res['busy_s']:.2f} s; scale {scale:.4f}; "
          f"details in {out_path}")
    for k in sorted(raw):
        print(f"raw {k} = {raw[k]:.6g} {units[k]}")
    for k in sorted(metrics):
        print(f"{k} = {metrics[k]:.6g} {units[k]}")
    result = {"correct": not errors, "attempted": res["attempted"],
              "failed": res["failed"],
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
