"""The public surface: every name is declared once, in its module's
``__all__``, and the package re-exports exactly their union."""
import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import snc80211
from snc80211.bounds import BoundSpec, quantile
from snc80211.characterize import PoissonTraffic, fit_sigma_rho
from snc80211.cli import main
from snc80211.dcf import ImpairmentModel, impairment_mgf, impairment_sigma_rho, solve_fixed_point
from snc80211.config import RunConfig
from snc80211.sim import SimConfig, SimResult

MODULES = ("bounds", "characterize", "config", "dcf", "sim")


def test_package_exports_the_union_of_module_exports():
    union = []
    for name in MODULES:
        module = importlib.import_module(f"snc80211.{name}")
        for attr in module.__all__:
            assert getattr(snc80211, attr) is getattr(module, attr)
        union.extend(module.__all__)
    assert len(set(union)) == len(union), "a name is exported by two modules"
    assert snc80211.__all__ == union


@pytest.mark.parametrize("module, name", [
    ("characterize", "MgfEnvelope"),
    ("characterize", "TraceData"),
    ("characterize", "TraceTraffic"),
    ("characterize", "trace_mgf_envelope"),
    ("characterize", "average_rate"),
    ("characterize", "DEFAULT_EPSILON"),
    ("bounds", "average_rate"),
    ("dcf", "MgfEnvelope"),
    ("dcf", "impairment_mgf_envelope"),
    ("dcf", "DEFAULT_MGF_T_CAP"),
    # the retired curve layer's names, absent from bounds, which took its kernels
    *[pytest.param("bounds", name, id=f"curves-{name}") for name in (
        "vb_curve_martingale", "BoundingFunction", "CurveWithBound", "CURVE_KINDS",
        "ta_curve_from_sigma_rho", "vb_curve_from_sigma_rho", "ta_to_vb",
        "minplus_convolve", "independent_tail_convolve")],
    ("bounds", "VacuousBoundWarning"),
    ("bounds", "StabilityReport"),
    ("bounds", "stability_check"),
])
def test_deleted_names_are_gone(module, name):
    assert not hasattr(importlib.import_module(f"snc80211.{module}"), name)
    assert not hasattr(snc80211, name)
    assert not hasattr(ImpairmentModel, "service_curve")
    for cls, method in ((PoissonTraffic, "martingale_ok"), (PoissonTraffic, "sigma_rho"),
                        (PoissonTraffic, "average_rate"), (ImpairmentModel, "average_rate")):
        assert not hasattr(cls, method)


def test_curves_module_is_gone():
    # SigmaRho lives with the envelope code, the tail kernels with bounds
    assert importlib.util.find_spec("snc80211.curves") is None
    assert snc80211.SigmaRho is snc80211.characterize.SigmaRho


def test_single_valued_options_are_gone():
    assert "t_cap" not in inspect.signature(fit_sigma_rho).parameters
    assert "t_cap" not in inspect.signature(impairment_mgf).parameters
    assert "x_max" not in inspect.signature(quantile).parameters
    assert "tol" not in inspect.signature(solve_fixed_point).parameters
    assert "epsilon" not in inspect.signature(impairment_sigma_rho).parameters
    assert "epsilon" not in inspect.signature(fit_sigma_rho).parameters
    assert "epsilon" not in inspect.signature(ImpairmentModel).parameters
    with pytest.raises(SystemExit) as exc:
        main(["characterize", "--epsilon", "1e-5"])
    assert exc.value.code == 2


def test_derived_values_are_not_stored():
    # r_i is the rest of the capacity; the mean backlog and the replication
    # count follow from the backlogs, and the sample time is the config's
    assert "r_i" not in {f.name for f in fields(BoundSpec)}
    stored = {f.name for f in fields(SimResult)}
    assert not stored & {"mean_backlog", "replications", "sample_time"}


def test_each_run_setting_is_declared_once():
    # the simulator settings live in SimConfig only, under the INI key's name
    assert {f.name for f in fields(RunConfig)} == {"sim", "grid"}
    sim_fields = {f.name for f in fields(SimConfig)}
    assert "collision_duration_mode" not in sim_fields
    assert "collision_mode" in sim_fields


def test_no_assert_in_the_package():
    # python -O strips asserts, so a guarantee must be a check that raises
    for path in sorted(Path(snc80211.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"


def _run_python(*args):
    env = dict(os.environ)
    src = str(Path(snc80211.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=30)


def test_the_package_does_not_load_scipy():
    # scipy is a test oracle only; importing it would about triple start-up
    proc = _run_python("-c", "import sys, snc80211; print('scipy' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
    # -X importtime names every module a run loads, on stderr, one a line
    proc = _run_python("-X", "importtime", "-m", "snc80211", "fixed-point", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    loaded = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()]
    assert "snc80211.dcf" in loaded
    assert not [m for m in loaded if m.partition(".")[0] == "scipy"]
