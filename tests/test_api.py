"""The public surface: every name is declared once, in its module's
``__all__``, and the package re-exports exactly their union."""
import ast
import importlib
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

import snc80211
from snc80211.bounds import BoundSpec, quantile
from snc80211.characterize import fit_sigma_rho
from snc80211.dcf import ImpairmentModel, impairment_mgf, impairment_sigma_rho, solve_fixed_point
from snc80211.config import RunConfig
from snc80211.sim import SimConfig, SimResult

MODULES = ("bounds", "characterize", "config", "curves", "dcf", "sim")


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
    ("bounds", "average_rate"),
    ("dcf", "MgfEnvelope"),
    ("dcf", "impairment_mgf_envelope"),
    ("dcf", "DEFAULT_MGF_T_CAP"),
    ("curves", "vb_curve_martingale"),
    ("curves", "BoundingFunction"),
    ("curves", "CurveWithBound"),
    ("curves", "CURVE_KINDS"),
    ("curves", "ta_curve_from_sigma_rho"),
    ("curves", "vb_curve_from_sigma_rho"),
    ("curves", "ta_to_vb"),
    ("curves", "minplus_convolve"),
    ("curves", "independent_tail_convolve"),
    ("bounds", "VacuousBoundWarning"),
    ("bounds", "StabilityReport"),
    ("bounds", "stability_check"),
])
def test_deleted_names_are_gone(module, name):
    assert not hasattr(importlib.import_module(f"snc80211.{module}"), name)
    assert not hasattr(snc80211, name)
    assert not hasattr(ImpairmentModel, "service_curve")


def test_single_valued_options_are_gone():
    assert "t_cap" not in inspect.signature(fit_sigma_rho).parameters
    assert "t_cap" not in inspect.signature(impairment_mgf).parameters
    assert "x_max" not in inspect.signature(quantile).parameters
    assert "tol" not in inspect.signature(solve_fixed_point).parameters
    assert "epsilon" not in inspect.signature(impairment_sigma_rho).parameters


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
