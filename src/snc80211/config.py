"""INI-style configuration for the CLI.

Four sections, all optional, every key optional (defaults are the standard
802.11b setup):

  [mac]      Params80211 fields: basic_rate, data_rate, phy_header,
             ack_header, mac_header, sifs, difs, idle_slot, cw_min, cw_max,
             retry_limit, payload, n_nodes
  [grid]     GridOptions fields: theta_points, theta_min, theta_max, r_points
  [traffic]  mode (poisson | saturated), rate (packets per slot)
  [sim]      duration, replications, sample_time, collision_mode, seed

[mac], [traffic] and [sim] all set the one SimConfig: [mac] its params,
the others its fields under their own names, except that the key mode sets
the field traffic. Each value is parsed as the type of the dataclass field
it sets and checked by that dataclass when the file is loaded. A duration
given without a sample time also lowers sample_time to at most the
duration (_replace_sim). Unknown sections or keys are errors, not
silently ignored. The config path can also come from the SNC80211_CONFIG
environment variable; an explicit --config flag wins.
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields, replace
from typing import get_type_hints

from .bounds import GridOptions
from .dcf import Params80211
from .sim import SimConfig

__all__ = ["ConfigError", "RunConfig", "load_run_config", "ENV_CONFIG"]

ENV_CONFIG = "SNC80211_CONFIG"


class ConfigError(Exception):
    """Bad configuration file: unreadable, unknown key, or invalid value."""


@dataclass(frozen=True)
class RunConfig:
    sim: SimConfig = field(default_factory=SimConfig)
    grid: GridOptions = field(default_factory=GridOptions)


def _replace_sim(sim: SimConfig, **values) -> SimConfig:
    """sim with these fields replaced. A duration given without a sample
    time sets sample_time = min(sample_time, duration)."""
    if "duration" in values and "sample_time" not in values:
        values["sample_time"] = min(sim.sample_time, values["duration"])
    return replace(sim, **values)


# The SimConfig fields a setting of the same name sets: each a CLI flag
# where the subcommand declares it, and each but rate a [sim] key
_RUN_SETTINGS = tuple(f.name for f in fields(SimConfig) if f.name not in ("params", "traffic"))

# section -> (the dataclass whose fields it sets; INI key -> field name, or
#             None when every field is a key under its own name). Sections
#             are applied in this order, whatever their order in the file.
_SECTIONS = {
    "mac": (Params80211, None),
    "grid": (GridOptions, None),
    "traffic": (SimConfig, {"mode": "traffic", "rate": "rate"}),
    "sim": (SimConfig, {k: k for k in _RUN_SETTINGS if k != "rate"}),
}


def _overrides(cp, section: str, cls, keys: dict | None) -> dict:
    """The section's values, each parsed as the type of its field in cls."""
    types = get_type_hints(cls)
    keys = keys or {f.name: f.name for f in fields(cls)}
    out = {}
    for key, raw in cp.items(section):
        name = keys.get(key)
        if name is None:
            raise ConfigError(f"unknown [{section}] key {key!r}")
        try:
            out[name] = types[name](raw)
        except ValueError as e:
            raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from e
    return out


def load_run_config(path: str | None = None) -> RunConfig:
    """Build a RunConfig from a file, the SNC80211_CONFIG path, or defaults."""
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if path is None:
        return RunConfig()
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from e
    except configparser.Error as e:
        raise ConfigError(f"cannot parse config {path!r}: {e}") from e

    unknown = set(cp.sections()) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}")

    sim, grid = SimConfig(), GridOptions()
    for section, (cls, keys) in _SECTIONS.items():
        if not cp.has_section(section):
            continue
        values = _overrides(cp, section, cls, keys)
        try:
            if cls is GridOptions:
                grid = replace(grid, **values)
            elif cls is Params80211:
                sim = replace(sim, params=replace(sim.params, **values))
            else:
                sim = _replace_sim(sim, **values)
        except ValueError as e:
            raise ConfigError(f"invalid [{section}] values: {e}") from e
    return RunConfig(sim=sim, grid=grid)
