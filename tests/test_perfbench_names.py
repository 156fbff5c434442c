"""The names perfbench's traced run patches are still the ones a request calls.

perfbench/spans.py replaces package functions at the names their callers
look them up by. A change that drops such a name, or stops calling it,
leaves the traced metrics reading 0 and fails nothing else, so one traced
request is run here.
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


def _traced(*argv):
    """The exit code of one traced request, and its span count by name."""
    env = {k: v for k, v in os.environ.items() if k != ENV_CONFIG}
    done = subprocess.run([sys.executable, "-c", _TRACED_REQUEST,
                           str(ROOT / "perfbench"), str(ROOT / "src"), *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


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
