"""The names perfbench's traced run patches are still the ones a request
calls, and its requests still pass its output checks.

perfbench/spans.py replaces package functions at the names their callers
look them up by. A change that drops such a name, or stops calling it,
leaves the traced metrics reading 0 and fails nothing else, so one traced
request is run here. A request whose output fails perfbench/checks.py is
counted as failed by the benchmark, so each kind of request is checked
here too.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

from snc80211.config import ENV_CONFIG

ROOT = Path(__file__).resolve().parents[1]

# argv: perfbench's directory, the package's source directory, then the
# request's own argv
_TRACED_REQUEST = """\
import collections, contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
import spans
recorder = spans.install()
import snc80211.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = snc80211.cli.main(sys.argv[3:])
print(json.dumps({"code": code, "spans": collections.Counter(s[0] for s in recorder.spans)}))
"""


# argv: perfbench's directory, then the package's source directory
_CHECKED_REQUESTS = """\
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
import checks, workloads
import snc80211.cli
pinned = checks.load_pinned()
requests = [("bounds", workloads.bounds_argv(rate)) for rate in workloads.BOUND_RATES]
requests.append(("characterize", ["characterize", *workloads.JSON]))
requests += [(name, workloads.pinned_argv(name)) for name in workloads.NAMES
             if workloads.pinned_argv(name) is not None]
failed = []
for name, argv in requests:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = snc80211.cli.main(argv)
    out = buf.getvalue()
    err = f"exit code {code}" if code else checks.check(pinned, name, argv, out)
    if not err and argv == workloads.pinned_argv(name):
        err = checks.check_pinned_run(pinned, name, out)
    if err:
        failed.append(f"{' '.join(argv)}: {err}")
print(json.dumps({"requests": len(requests), "failed": failed}))
"""


def _run(code, *argv):
    env = {k: v for k, v in os.environ.items() if k != ENV_CONFIG}
    done = subprocess.run([sys.executable, "-c", code,
                           str(ROOT / "perfbench"), str(ROOT / "src"), *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _traced(*argv):
    """The exit code of one traced request, and its span count by name."""
    return _run(_TRACED_REQUEST, *argv)


def test_traced_characterize_records_one_fit_per_theta():
    out = _traced("characterize", "--format", "json")
    assert out["code"] == 0
    assert out["spans"].get("cli.main", 0) == 1
    assert out["spans"].get("characterize.fit_sigma_rho", 0) == 40  # the default grid's thetas


def test_traced_bounds_records_one_grid_build_per_arrival_tail():
    # quantile_table builds the general tail's grid (bound1, bound3) and the
    # martingale tail's (bound2, bound4) through build_bound
    out = _traced("bounds", "--rate", "0.04", "--format", "json")
    assert out["code"] == 0
    assert out["spans"].get("cli.main", 0) == 1
    assert out["spans"].get("bounds.quantile_table", 0) == 1
    assert out["spans"].get("bounds.build_bound", 0) == 2


def test_traced_simulate_records_one_run():
    # sim.run is wrapped at cli.run; the simulator metrics read 0 without it
    out = _traced("simulate", "--rate", "0.04", "--duration", "1", "--replications", "2",
                  "--format", "json")
    assert out["code"] == 0
    assert out["spans"].get("cli.main", 0) == 1
    assert out["spans"].get("sim.run", 0) == 1


def test_requests_pass_the_benchmark_output_checks():
    # bounds at each pinned rate, the default characterize, and the two
    # simulator runs whose output is pinned byte for byte
    out = _run(_CHECKED_REQUESTS)
    assert out["failed"] == []
    assert out["requests"] == 10
