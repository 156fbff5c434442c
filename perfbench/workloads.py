"""Workload definitions: the CLI argument lists each workload sends.

Every request is one `snc80211` CLI call. The workload seed only chooses
the order of the bound rates and the per-request simulator seeds; the
program sees nothing but the generated arguments.
"""
from __future__ import annotations

import random

NAMES = ("bounds", "characterize", "sim-poisson", "sim-saturated")

# 0.02 is light load; 0.075 sits just below the 0.0793 threshold, where few
# grid points are feasible and the bound layer does the least work.
BOUND_RATES = ("0.02", "0.03", "0.04", "0.05", "0.06", "0.07", "0.075")

# one small batch per request: two replications keep a request near 1 s and
# still give a replication-level process pool something to fan out
SIM_SHAPE = ("--duration", "50", "--sample-time", "50", "--replications", "2")
SIM_MODE = {"sim-poisson": ("--rate", "0.07"), "sim-saturated": ("--saturated",)}

# (config, seed) of the one untimed simulator run compared byte for byte
# with its pinned output
PINNED_SIM_SEED = {"sim-poisson": "7", "sim-saturated": "42"}

JSON = ("--format", "json")


def uses_seed(name: str) -> bool:
    return name != "characterize"


def bounds_argv(rate: str) -> list:
    return ["bounds", "--rate", rate, *JSON]


def sim_argv(name: str, seed) -> list:
    return ["simulate", *SIM_MODE[name], *SIM_SHAPE, "--seed", str(seed), *JSON]


def cycles(name: str, seed: int):
    """Yield lists of argv, one list per cycle.

    The timed loop only stops between cycles, so every run of `bounds`
    covers each pinned rate equally often whatever order the seed picks.
    """
    rng = random.Random(seed)
    while True:
        if name == "bounds":
            rates = list(BOUND_RATES)
            rng.shuffle(rates)
            yield [bounds_argv(r) for r in rates]
        elif name == "characterize":
            yield [["characterize", *JSON]]
        else:
            yield [sim_argv(name, rng.randrange(1, 2 ** 31))]


def pinned_argv(name: str):
    """The untimed run whose output must equal the pinned one, or None."""
    if name in PINNED_SIM_SEED:
        return sim_argv(name, PINNED_SIM_SEED[name])
    return None
