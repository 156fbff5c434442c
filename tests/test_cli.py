"""End-to-end CLI: subcommands, output formats, config files, exit codes."""
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import snc80211
from snc80211.cli import main
from snc80211.config import ENV_CONFIG, ConfigError, load_run_config


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(ENV_CONFIG, raising=False)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def _run_cli(argv, module="snc80211.cli"):
    """Run the CLI in a fresh interpreter, without a config from the
    environment, under a timeout."""
    env = {k: v for k, v in os.environ.items() if k != ENV_CONFIG}
    src = str(Path(snc80211.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=30)


def test_fixed_point_table(capsys):
    assert main(["fixed-point"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split()
    row = dict(zip(header, lines[1].split()))
    assert row["L"] == "39"
    assert float(row["tau"]) == pytest.approx(0.0376096, abs=1e-6)
    assert float(row["eta"]) == pytest.approx(0.2917908, abs=1e-6)


def test_fixed_point_json(capsys):
    assert main(["fixed-point", "--format", "json"]) == 0
    payload = _json_out(capsys)
    row = payload["rows"][0]
    assert row["n"] == 10
    assert row["L"] == 39
    assert row["tau"] == pytest.approx(0.037609599546, abs=1e-9)
    assert main(["fixed-point", "--payload", "512", "--format", "json"]) == 0
    assert _json_out(capsys)["rows"][0]["L"] == 49


def test_package_runs_as_a_module(capsys):
    # python -m snc80211 is the console script, without installing it
    proc = _run_cli(["fixed-point", "--format", "json"], module="snc80211")
    assert main(["fixed-point", "--format", "json"]) == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")


def test_fixed_point_csv(capsys):
    assert main(["fixed-point", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0][:3] == ["n", "payload", "L"]
    data = dict(zip(rows[0], rows[1]))
    assert float(data["p_s_cond"]) == pytest.approx(0.083647, abs=1e-5)


def test_fixed_point_more_nodes_collide_more(capsys):
    assert main(["fixed-point", "--n", "20", "--format", "json"]) == 0
    row20 = _json_out(capsys)["rows"][0]
    assert row20["n"] == 20
    assert row20["eta"] > 0.2917908
    assert row20["tau"] < 0.0376096


def test_characterize_single_theta(capsys):
    assert main(["characterize", "--thetas", "0.1", "--format", "json"]) == 0
    row = _json_out(capsys)["rows"][0]
    assert row["theta"] == 0.1
    assert row["sigma"] == pytest.approx(0.0755745, abs=1e-5)
    assert row["rho"] == pytest.approx(0.9244255, abs=1e-5)


def test_characterize_empty_grid(capsys):
    assert main(["characterize", "--thetas", ","]) == 2
    assert "empty theta grid" in capsys.readouterr().err


def test_characterize_negative_theta(capsys):
    assert main(["characterize", "--thetas", "-0.5"]) == 2
    assert "error" in capsys.readouterr().err


def test_bounds_single_point(capsys):
    assert main(["bounds", "--rate", "0.04", "--p-list", "0.05",
                 "--variants", "bound2", "--format", "json"]) == 0
    rows = _json_out(capsys)["rows"]
    assert rows == [{"p": 0.05, "bound2": 19}]


def test_bounds_rejects_unknown_variant(capsys):
    assert main(["bounds", "--rate", "0.04", "--variants", "bogus"]) == 2


def test_bounds_rejects_bad_p(capsys):
    for p_list, err in (("2.0", "p=2.0 must lie strictly between 0 and 1"),
                        ("x", "cannot parse float list 'x'"),
                        (",", "empty p list")):
        assert main(["bounds", "--rate", "0.04", "--p-list", p_list]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize("variants", [",", "bound1,bound1"])
def test_bounds_rejects_empty_or_repeated_variants(capsys, variants):
    assert main(["bounds", "--rate", "0.04", "--variants", variants]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_bounds_unstable_rate_is_infeasible(capsys):
    assert main(["bounds", "--rate", "0.09", "--p-list", "0.05"]) == 3
    assert "infeasible" in capsys.readouterr().err


def test_bounds_unsustainable_rate_is_one_stderr_line():
    # a process of its own, so any warnings-module output would show too
    proc = _run_cli(["bounds", "--rate", "0.2"])
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == ("infeasible: arrival rate 0.2000 >= sustainable rate "
                           "0.0793; no finite bound exists\n")


def test_bounds_independent_tails_keep_falling_at_deep_p(capsys):
    # the independence tail is summed, not taken as 1 minus its complement,
    # so quantiles keep rising where the complement would be rounding noise
    assert main(["bounds", "--rate", "0.04", "--p-list", "1e-14,1e-16,1e-18",
                 "--variants", "bound3,bound4", "--format", "json"]) == 0
    rows = _json_out(capsys)["rows"]
    for v in ("bound3", "bound4"):
        q = [r[v] for r in rows]
        assert q[0] < q[1] < q[2], (v, q)


def test_stability_verdicts(capsys):
    assert main(["stability", "--rate", "0.04", "--format", "json"]) == 0
    row = _json_out(capsys)["rows"][0]
    assert row["verdict"] == "stable-bound-derivable"
    assert row["threshold"] == pytest.approx(0.079295209692, abs=1e-9)
    assert row["threshold_mbps"] == pytest.approx(0.208200755704, abs=1e-9)
    threshold = row["threshold"]
    assert main(["stability", "--rate", "0.081", "--format", "json"]) == 0
    assert _json_out(capsys)["rows"][0]["verdict"] == "not-derivable"
    assert main(["stability", "--rate", "0", "--format", "json"]) == 0
    assert _json_out(capsys)["rows"][0]["verdict"] == "stable-bound-derivable"
    # exactly at the threshold no finite bound exists: strict inequality
    assert main(["stability", "--rate", repr(threshold), "--format", "json"]) == 0
    assert _json_out(capsys)["rows"][0]["verdict"] == "not-derivable"
    assert main(["stability", "--rate", "-0.01"]) == 2
    assert capsys.readouterr().err == (
        "error: rate must be finite and nonnegative, got -0.01\n")


def test_simulate_rows_and_summary(capsys):
    assert main(["simulate", "--rate", "0.05", "--duration", "2",
                 "--replications", "5", "--sample-time", "1",
                 "--seed", "3", "--format", "json"]) == 0
    payload = _json_out(capsys)
    assert len(payload["rows"]) == 5
    assert payload["rows"][0] == {"replication": 0, "time": 1.0,
                                  "backlog": payload["rows"][0]["backlog"]}
    summary = payload["summary"]
    assert set(summary) == {"mean_backlog", "drops", "tagged_attempt_rate",
                            "tagged_collision_fraction", "throughput_per_node"}
    assert len(summary["throughput_per_node"]) == 10


def test_simulate_saturated_flag(capsys):
    assert main(["simulate", "--saturated", "--duration", "1",
                 "--replications", "2", "--seed", "1",
                 "--format", "json"]) == 0
    summary = _json_out(capsys)["summary"]
    assert summary["tagged_attempt_rate"] > 0.02
    assert summary["tagged_collision_fraction"] > 0.1


def test_simulate_seed_changes_outcome(capsys):
    argv = ["simulate", "--rate", "0.09", "--duration", "5",
            "--replications", "6", "--sample-time", "5", "--format", "json"]
    assert main(argv + ["--seed", "1"]) == 0
    first = _json_out(capsys)["rows"]
    assert main(argv + ["--seed", "2"]) == 0
    second = _json_out(capsys)["rows"]
    assert first != second
    assert main(argv + ["--seed", "1"]) == 0
    assert _json_out(capsys)["rows"] == first


def test_out_flag_writes_file(tmp_path, capsys):
    out = tmp_path / "fp.json"
    assert main(["fixed-point", "--format", "json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["rows"][0]["L"] == 39


def test_out_into_missing_directory_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "fp.json"
    assert main(["fixed-point", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {str(out)!r}: No such file or directory\n"


def test_repeat_runs_are_byte_identical(tmp_path):
    argv = ["simulate", "--rate", "0.06", "--duration", "2",
            "--replications", "5", "--sample-time", "2", "--seed", "11",
            "--format", "json"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_compare_empirical_stays_below_bounds(capsys):
    assert main(["compare", "--rate", "0.04", "--p-list", "0.5,0.05",
                 "--duration", "5", "--replications", "20",
                 "--sample-time", "5", "--seed", "7",
                 "--format", "json"]) == 0
    rows = _json_out(capsys)["rows"]
    assert [r["p"] for r in rows] == [0.5, 0.05]
    for r in rows:
        for v in ("bound1", "bound2", "bound3", "bound4"):
            assert r["empirical"] <= r[v]


def test_compare_rejects_saturated_traffic(tmp_path):
    # saturated backlogs sit at the sentinel queue length, and the bounds
    # hold only for Poisson arrivals
    cfgfile = _write(tmp_path, "sat.ini", "[traffic]\nmode = saturated\n")
    proc = _run_cli(["compare", "--config", cfgfile, "--duration", "2",
                     "--replications", "3", "--sample-time", "2", "--p-list", "0.5"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: compare needs Poisson traffic: the bounds hold "
                           "only for Poisson arrivals\n")


@pytest.mark.parametrize("argv", [["bounds", "--p-list", "0.5"], ["stability"]])
def test_bounds_and_stability_reject_saturated_traffic(tmp_path, capsys, argv):
    # a saturated node has no arrival rate: these used to answer for
    # Poisson arrivals at the default rate 0
    cfgfile = _write(tmp_path, "sat.ini", "[traffic]\nmode = saturated\n")
    assert main([*argv, "--config", cfgfile]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {argv[0]} needs Poisson traffic: the bounds "
                            "hold only for Poisson arrivals\n")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_config_mac_section(tmp_path, capsys):
    cfgfile = _write(tmp_path, "n20.ini", "[mac]\nn_nodes = 20\n")
    cfg = load_run_config(cfgfile)
    assert cfg.sim.params.n_nodes == 20
    assert main(["fixed-point", "--config", cfgfile, "--format", "json"]) == 0
    assert _json_out(capsys)["rows"][0]["n"] == 20


def test_config_from_environment(tmp_path, capsys, monkeypatch):
    cfgfile = _write(tmp_path, "n20.ini", "[mac]\nn_nodes = 20\n")
    monkeypatch.setenv(ENV_CONFIG, cfgfile)
    assert main(["fixed-point", "--format", "json"]) == 0
    assert _json_out(capsys)["rows"][0]["n"] == 20


def test_config_flag_beats_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(ENV_CONFIG,
                       _write(tmp_path, "env.ini", "[mac]\nn_nodes = 20\n"))
    explicit = _write(tmp_path, "flag.ini", "[mac]\nn_nodes = 5\n")
    assert main(["fixed-point", "--config", explicit, "--format", "json"]) == 0
    assert _json_out(capsys)["rows"][0]["n"] == 5


def test_config_traffic_and_sim_sections(tmp_path, capsys):
    cfgfile = _write(tmp_path, "sim.ini",
                     "[traffic]\nmode = poisson\nrate = 0.05\n"
                     "[sim]\nduration = 2\nreplications = 3\n"
                     "sample_time = 1\nseed = 5\n")
    assert main(["simulate", "--config", cfgfile, "--format", "json"]) == 0
    payload = _json_out(capsys)
    assert len(payload["rows"]) == 3
    assert payload["rows"][0]["time"] == 1.0


@pytest.mark.parametrize("sim, flags, time", [
    ("duration = 2", [], 2.0),                     # config duration lowers the default
    ("sample_time = 1", ["--duration", "3"], 1.0),  # flag duration keeps the lower one
])
def test_duration_without_sample_time(tmp_path, capsys, sim, flags, time):
    # a duration given without a sample time sets min(sample_time, duration)
    cfgfile = _write(tmp_path, "st.ini",
                     f"[traffic]\nrate = 0.05\n[sim]\n{sim}\nreplications = 2\n")
    assert main(["simulate", "--config", cfgfile, *flags, "--format", "json"]) == 0
    assert [r["time"] for r in _json_out(capsys)["rows"]] == [time, time]


def test_config_grid_section(tmp_path, capsys):
    cfgfile = _write(tmp_path, "grid.ini",
                     "[grid]\ntheta_points = 5\ntheta_min = 0.1\n"
                     "theta_max = 1.0\nr_points = 10\n")
    assert main(["characterize", "--config", cfgfile, "--format", "json"]) == 0
    rows = _json_out(capsys)["rows"]
    assert len(rows) == 5
    assert rows[0]["theta"] == pytest.approx(0.1)
    assert rows[-1]["theta"] == pytest.approx(1.0)


@pytest.mark.parametrize("body", [
    "[radio]\nfoo = 1\n",                 # unknown section
    "[mac]\nwindow = 3\n",                # unknown key
    "[mac]\ncw_min = many\n",             # unparsable value
    "[mac]\ncw_min = 24\n",               # violates the power-of-two ladder
    "[traffic]\nmode = bursty\n",         # unknown traffic mode
    "[grid]\ntheta_points = 0\n",        # empty theta grid
    "[grid]\nr_points = 0\n",            # empty rate split
    "[sim]\ncollision_mode = bogus\n",   # unknown collision mode
    "[sim]\nreplications = 0\n",        # no replication to sample
    "[sim]\nduration = 60\nsample_time = 80\n",  # sample after the end
    "[mac]\npayload = 5%\n",            # a % is a value, not interpolation
    "[traffic]\nmode = 5%\n",
    "n_nodes = 20\n",                    # no section header
    "[sim]\nseed = -5\n",               # no negative root seed
])
def test_config_rejected(tmp_path, capsys, body):
    cfgfile = _write(tmp_path, "bad.ini", body)
    with pytest.raises(ConfigError):
        load_run_config(cfgfile)
    assert main(["fixed-point", "--config", cfgfile]) == 2
    assert "config error" in capsys.readouterr().err


def test_simulate_duration_below_one_slot_is_a_usage_error(capsys):
    # 1 us rounds to zero 20 us idle slots: nothing can be simulated
    assert main(["simulate", "--rate", "0.04", "--duration", "0.000001",
                 "--sample-time", "0", "--replications", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: duration")
    assert "Traceback" not in err


def test_characterize_mgf_overflow_is_nonconvergence(capsys):
    # at theta=700, log M_I(2) already passes the float range of exp, so
    # the fit cannot converge
    assert main(["characterize", "--thetas", "700"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("did not converge: impairment MGF overflows")
    assert "theta=700.0, t=2" in err


@pytest.mark.parametrize("theta", ["1e-12", "1e-300"])
def test_characterize_rho_below_mean_rate_is_nonconvergence(capsys, theta):
    # at tiny theta log M_I(t) rounds away and the fit lands below the
    # impairment's mean rate 0.9207, which no valid envelope can
    assert main(["characterize", "--thetas", theta]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("did not converge: fitted rho=")
    assert f"at theta={float(theta)} is below the impairment's mean rate 0.92070" in captured.err


SIM_1S = ["--duration", "1", "--replications", "1", "--sample-time", "1"]


@pytest.mark.parametrize("argv, grid", [
    (["characterize", "--thetas", "inf"], None),
    (["characterize", "--thetas", "nan"], None),
    (["bounds", "--rate", "0.04", "--p-list", "nan"], None),
    (["bounds", "--p-list", "0.5"], "theta_max = inf"),
    (["bounds", "--p-list", "0.5"], "theta_min = nan"),
    (["bounds", "--rate", "nan", "--p-list", "0.5"], None),
    (["bounds", "--rate", "inf", "--p-list", "0.5"], None),
    (["stability", "--rate", "nan"], None),
    (["stability", "--rate", "inf"], None),
    (["simulate", "--rate", "inf", *SIM_1S], None),
    (["simulate", "--rate", "nan", *SIM_1S], None),
    (["simulate", "--rate", "0.04", "--duration", "inf",
      "--replications", "1", "--sample-time", "1"], None),
])
def test_non_finite_input_is_a_usage_error(tmp_path, argv, grid):
    # several of these used to hang, so each runs in its own process under
    # a timeout: a regression fails here instead of stalling the suite
    if grid is not None:
        argv = [*argv, "--config", _write(tmp_path, "grid.ini", f"[grid]\n{grid}\n")]
    proc = _run_cli(argv)
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("body, name", [
    ("difs = nan", "difs"),
    ("basic_rate = inf", "basic_rate"),
    ("retry_limit = 2000", "retry_limit"),
])
def test_mac_setting_outside_the_model_is_a_usage_error(tmp_path, body, name):
    # a non-finite time or rate, and a retry limit whose last backoff window
    # cw_min * 2**(retry_limit - 1) leaves the float range, are refused where
    # the config loads, by a message that names the setting
    proc = _run_cli(["fixed-point", "--config", _write(tmp_path, "mac.ini", f"[mac]\n{body}\n")])
    assert proc.returncode == 2, proc.stderr
    assert f"config error: invalid [mac] values: {name} " in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("body, name", [
    (f"cw_min = 1\ncw_max = {2 ** 2000}", "cw_max"),
    ("sifs = 1e308", "sifs"),
    (f"payload = {10 ** 400}", "payload"),
])
@pytest.mark.parametrize("command", ["fixed-point", "characterize"])
def test_mac_setting_past_the_integer_range_is_a_usage_error(tmp_path, capsys, body, name, command):
    # a window beyond 64-bit draws, or a slot length L past the model's
    # limit, is refused where the config loads, before anything is sized by
    # it, by a message that names the setting
    assert main([command, "--config", _write(tmp_path, "mac.ini", f"[mac]\n{body}\n")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: invalid [mac] values: ")
    assert f" {name}" in captured.err


@pytest.mark.parametrize("argv, body", [
    (["fixed-point", "--seed", "-1"], None),
    (["simulate", "--rate", "0.04", *SIM_1S, "--seed", "-1"], None),
    (["bounds", "--rate", "0.04", "--seed", "-1"], None),
    (["fixed-point"], "[sim]\nseed = -5\n"),
    (["simulate", "--rate", "0.04", *SIM_1S], "[sim]\nseed = -5\n"),
])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv, body):
    # rejected where the settings load, by a message that names the seed,
    # whether or not the command would draw from it
    if body is not None:
        argv = [*argv, "--config", _write(tmp_path, "seed.ini", body)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed must be a nonnegative integer, got -" in captured.err


def test_config_missing_file(tmp_path, capsys):
    assert main(["fixed-point", "--config", str(tmp_path / "nope.ini")]) == 2


def test_degenerate_fixed_point_exits_nonconvergent(tmp_path, capsys):
    # cw_min=1 pins every backoff at zero; the solver cannot bracket a root
    cfgfile = _write(tmp_path, "degen.ini",
                     "[mac]\ncw_min = 1\ncw_max = 1\nn_nodes = 3\n")
    assert main(["fixed-point", "--config", cfgfile]) == 4
    assert "did not converge" in capsys.readouterr().err


def test_internal_check_failure_is_an_error_not_nonconvergence(capsys, monkeypatch):
    # a failed simulator check keeps exit code 4 but is not reported as
    # a convergence failure
    def broken_run(config):
        raise RuntimeError("node 3: conservation violated")

    monkeypatch.setattr("snc80211.cli.run", broken_run)
    assert main(["simulate", "--rate", "0.04", "--duration", "1",
                 "--replications", "1", "--sample-time", "1"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: node 3")
    assert "did not converge" not in err
