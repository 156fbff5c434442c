"""Self-tests of the benchmark: every validator accepts the pinned output and
rejects a corrupted one, and the metric names match BENCHMARK.json.

    python3 perfbench/selftest.py

Exits non-zero if any check fails. The last test makes two one-second
benchmark runs of the characterize workload.
"""
from __future__ import annotations

import json
import subprocess
import sys

import checks
import forkcall
import run
import spans

PINNED = checks.load_pinned()


def _table(rows) -> str:
    return json.dumps({"rows": rows})


def test_bounds_rejects_cell_below_empirical_quantile():
    rate = "0.07"
    ref = PINNED["bounds"][rate]
    assert checks.check_bounds(PINNED, rate, _table(ref["rows"])) is None
    rows = json.loads(json.dumps(ref["rows"]))
    row = rows[-1]
    row["bound4"] = ref["empirical"][repr(row["p"])] - 1
    err = checks.check_bounds(PINNED, rate, _table(rows))
    assert err and "below the empirical quantile" in err, err


def test_bounds_rejects_cell_above_pinned():
    rate = "0.04"
    rows = json.loads(json.dumps(PINNED["bounds"][rate]["rows"]))
    rows[0]["bound1"] += 1
    err = checks.check_bounds(PINNED, rate, _table(rows))
    assert err and "above pinned" in err, err


def test_characterize_rejects_rho_below_log_mgf_slope():
    ref = PINNED["characterize"]
    assert checks.check_characterize(PINNED, _table(ref["rows"])) is None
    rows = json.loads(json.dumps(ref["rows"]))
    ys = ref["log_mgf"][10]
    rows[10]["rho"] = (ys[-1] - ys[-2]) * 0.99  # below the envelope's slope
    err = checks.check_characterize(PINNED, _table(rows))
    assert err and "log-MGF above" in err, err


def test_characterize_rejects_sigma_change_at_pinned_rho():
    rows = json.loads(json.dumps(PINNED["characterize"]["rows"]))
    rows[3]["sigma"] *= 1.5
    assert checks.check_characterize(PINNED, _table(rows)) is not None


def test_simulate_rejects_one_flipped_byte():
    for name, text in PINNED["sim"].items():
        assert checks.check_pinned_run(PINNED, name, text) is None
        assert checks.check_simulate(PINNED, name, 2, text) is None, name
        i = text.index('"backlog"') + len('"backlog": ')
        flipped = text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:]
        assert checks.check_pinned_run(PINNED, name, flipped) is not None, name


def test_simulate_physics_rejects_halved_throughput():
    for name, text in PINNED["sim"].items():
        out = json.loads(text)
        out["summary"]["throughput_per_node"] = [
            x / 2 for x in out["summary"]["throughput_per_node"]]
        assert checks.check_simulate(PINNED, name, 2, json.dumps(out)) is not None


def _declared(section: str) -> dict:
    with open(forkcall.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def test_metric_names_match_benchmark_json():
    res = {"plain": [1.0], "traced": [1.1], "attempted": 1, "peak_kb": 1024,
           "busy_s": 1.0, "spans": [[["cli.main", 0.0, 1.0, -1, None]]]}
    assert set(run.end_to_end(res, [0.5])) == set(_declared("end_to_end"))
    assert set(run.per_layer(res, {})) == set(_declared("per_layer"))
    assert set(spans.LAYERS) == {n.split(".")[1] for n in _declared("per_layer")
                                 if n.startswith("layer.")}


def test_short_runs_print_every_declared_metric():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(forkcall.ROOT / "perfbench" / "run.py"),
             "--workload", "characterize", "--seed", "1", "--seconds", "1",
             "--trace", str(trace)],
            cwd=forkcall.ROOT, capture_output=True, text=True, timeout=170)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, result
        declared = _declared(section)
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def main() -> int:
    tests = [(k, v) for k, v in globals().items() if k.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as e:
            failed += 1
            print(f"FAIL {name}: {e}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
