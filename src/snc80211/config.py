"""INI-style configuration for the CLI.

Four sections, all optional, every key optional (defaults are the standard
802.11b setup):

  [mac]      Params80211 fields: basic_rate, data_rate, phy_header,
             ack_header, mac_header, sifs, difs, idle_slot, cw_min, cw_max,
             retry_limit, payload, n_nodes
  [traffic]  mode (poisson | saturated), rate (packets per slot)
  [grid]     GridOptions fields: theta_points, theta_min, theta_max, r_points
  [sim]      duration, replications, sample_time, collision_mode, seed

Each value is parsed as the type of the dataclass field it sets. Unknown
sections or keys are errors, not silently ignored. The config path can also
come from the SNC80211_CONFIG environment variable; an explicit --config
flag wins.
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields, replace
from typing import get_type_hints

from .bounds import GridOptions
from .dcf import Params80211
from .sim import COLLISION_MODES, TRAFFIC_MODES

__all__ = ["ConfigError", "RunConfig", "load_run_config", "ENV_CONFIG"]

ENV_CONFIG = "SNC80211_CONFIG"


class ConfigError(Exception):
    """Bad configuration file: unreadable, unknown key, or invalid value."""


@dataclass(frozen=True)
class RunConfig:
    params: Params80211 = field(default_factory=Params80211)
    grid: GridOptions = field(default_factory=GridOptions)
    traffic_mode: str = "poisson"
    rate: float = 0.0
    duration: float = 100.0
    replications: int = 100
    sample_time: float = 50.0
    collision_mode: str = "same-as-success"
    seed: int = 0

    def __post_init__(self):
        if self.traffic_mode not in TRAFFIC_MODES:
            raise ValueError(f"traffic_mode must be one of {TRAFFIC_MODES}")
        if self.collision_mode not in COLLISION_MODES:
            raise ValueError(f"collision_mode must be one of {COLLISION_MODES}")


# section -> (RunConfig attribute it replaces, or None for RunConfig itself;
#             the dataclass whose fields it sets; INI key -> field name, or
#             None when every field is a key under its own name)
_SECTIONS = {
    "mac": ("params", Params80211, None),
    "grid": ("grid", GridOptions, None),
    "traffic": (None, RunConfig, {"mode": "traffic_mode", "rate": "rate"}),
    "sim": (None, RunConfig, {k: k for k in ("duration", "replications", "sample_time",
                                             "collision_mode", "seed")}),
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
    cp = configparser.ConfigParser()
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

    out = RunConfig()
    for section in cp.sections():
        attr, cls, keys = _SECTIONS[section]
        values = _overrides(cp, section, cls, keys)
        try:
            if attr is not None:
                values = {attr: replace(getattr(out, attr), **values)}
            out = replace(out, **values)
        except ValueError as e:
            raise ConfigError(f"invalid [{section}] values: {e}") from e
    return out
