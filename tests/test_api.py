"""The public surface: every name is declared once, in its module's
``__all__``, and the package re-exports exactly their union."""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

import snc80211
from snc80211.bounds import quantile
from snc80211.characterize import fit_sigma_rho
from snc80211.curves import BoundingFunction
from snc80211.dcf import ImpairmentModel, impairment_mgf

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
])
def test_deleted_names_are_gone(module, name):
    assert not hasattr(importlib.import_module(f"snc80211.{module}"), name)
    assert not hasattr(snc80211, name)
    assert not hasattr(ImpairmentModel, "service_curve")


def test_single_valued_options_are_gone():
    assert not hasattr(BoundingFunction, "exponential")
    assert "t_cap" not in inspect.signature(fit_sigma_rho).parameters
    assert "t_cap" not in inspect.signature(impairment_mgf).parameters
    assert "x_max" not in inspect.signature(quantile).parameters


def test_no_assert_in_the_package():
    # python -O strips asserts, so a guarantee must be a check that raises
    for path in sorted(Path(snc80211.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"
