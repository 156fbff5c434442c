"""Slot-level discrete-event simulator of an 802.11 DCF WLAN.

n saturated or Poisson-fed nodes contend for one channel. Time advances in
idle-slot quanta but the loop jumps event to event (next backoff expiry,
next arrival boundary, busy-period end), so cost scales with events, not
slots. All transmissions start at idle-slot boundaries; a successful
exchange occupies exactly L idle slots including the trailing DIFS, matching
the analytic model's geometry.

Each node's next arrival sits in a heap, and each backlogged node keeps the
slot at which its DIFS wait ends and the one at which its backoff expires.
A busy period delays every expiry alike, so it moves one shared offset. An
arrival or a countdown stop then costs O(log n); only a transmission pays
O(n), to find the transmitters and the next expiry.

Replication i draws from an independent stream spawned from the root seed,
so results are bit-reproducible for a fixed (config, seed). A long enough
run splits its replications into one chunk per CPU: the calling process
runs the first and a forked child each later one. Results come back in
replication order, so the output does not depend on the process count.
"""
from __future__ import annotations

import contextlib
import heapq
import itertools
import math
import numbers
import os
import pickle
import signal
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .characterize import _check_rate
from .dcf import Params80211, _ceil_slots, data_slots, slot_length

__all__ = [
    "TRAFFIC_MODES",
    "COLLISION_MODES",
    "SimConfig",
    "SimResult",
    "run",
]

TRAFFIC_MODES = ("poisson", "saturated")
COLLISION_MODES = ("same-as-success", "data-plus-difs")
_SATURATED_QUEUE = 1 << 40
_INF = float("inf")
_NEVER = 1 << 62  # expiry of an empty queue, past any horizon
_POOL_MIN_SLOTS = 1_500_000  # replications x horizon slots worth forking for
_NODES_MAX = 2007  # association IDs 1..2007: the stations one 802.11 AP serves
# A run holds every replication's seed and stats until it aggregates them:
# 840 B per replication plus 53-58 B per node per replication (tracemalloc
# peak over 0.001 s runs of 20,000 replications at 1, 2 and 10 nodes and
# 2,000 at 201), and up to 112 B per node once its counts pass 256 (two
# lists of int objects and a row of float throughputs).
_REP_BYTES = 840
_NODE_BYTES = 112
_RUN_BYTES_MAX = 10 ** 9


@dataclass(frozen=True)
class SimConfig:
    """One experiment: parameters, traffic, horizon and seeding.

    rate is in packets per network-calculus slot (L idle slots); the
    per-idle-slot arrival rate is rate/L. sample_time is where the tagged
    node's backlog is recorded, once per replication.
    """

    params: Params80211 = field(default_factory=Params80211)
    traffic: str = "poisson"
    rate: float = 0.0
    duration: float = 100.0
    replications: int = 100
    sample_time: float = 50.0
    seed: int = 0
    collision_mode: str = "same-as-success"

    def __post_init__(self):
        if self.traffic not in TRAFFIC_MODES:
            raise ValueError(f"traffic must be one of {TRAFFIC_MODES}")
        if self.collision_mode not in COLLISION_MODES:
            raise ValueError(f"collision_mode must be one of {COLLISION_MODES}")
        if self.traffic == "poisson":
            _check_rate(self.rate)
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration must be positive and finite, got {self.duration}")
        # compared as a float, which int() cannot take past the float range;
        # _NEVER must lie past every horizon
        if not self.duration * (1e6 / self.params.idle_slot) < _NEVER:
            raise ValueError(f"duration {self.duration} s reaches 2**62 idle slots, "
                             "past the simulator's horizon")
        if _horizon_slots(self) < 1:
            raise ValueError(f"duration {self.duration} s is shorter than half an "
                             f"idle slot ({self.params.idle_slot} us)")
        if not 0 <= self.sample_time <= self.duration:
            raise ValueError("need 0 <= sample_time <= duration")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")


def _horizon_slots(config: SimConfig) -> int:
    # the simulated horizon in whole idle slots
    return int(round(config.duration * (1e6 / config.params.idle_slot)))


def _check_runnable(config: SimConfig) -> None:
    """Refuse, before any replication is seeded, a run past the simulator's
    limits, which the analysis does not share: more nodes than one access
    point can associate; replications whose results would hold more than
    about _RUN_BYTES_MAX; and a Poisson rate above L packets per slot, one
    arrival per idle slot per node on average and far past saturation,
    where the event loop, which stops at every arrival, slows without
    bound."""
    n, reps = config.params.n_nodes, config.replications
    if n > _NODES_MAX:
        raise ValueError(f"n_nodes = {n} exceeds the simulator's limit of {_NODES_MAX} "
                         "(the 802.11 association-ID range)")
    held = reps * (_REP_BYTES + _NODE_BYTES * n)
    if held > _RUN_BYTES_MAX:
        raise ValueError(f"replications = {reps} with n_nodes = {n} would hold about "
                         f"{held / 1e9:.3g} GB of results, past the simulator's limit "
                         f"of {_RUN_BYTES_MAX / 1e9:g} GB")
    L = slot_length(config.params)
    if config.traffic == "poisson" and config.rate > L:
        raise ValueError(f"rate {config.rate} exceeds the simulator's limit of {L} "
                         "packets per slot (one arrival per idle slot per node)")


@dataclass(eq=False)
class SimResult:
    """Aggregated outcome over all replications.

    backlogs holds the tagged node's backlog at the config's sample_time,
    one entry per replication. throughput_per_node is in packets per
    network-calculus slot, averaged over replications. tagged_attempt_rate
    is attempts per backoff-chain slot of the tagged node (countdown
    decrements plus its own attempt slots), the simulator's estimate of tau.
    """

    backlogs: np.ndarray
    drops: int
    throughput_per_node: np.ndarray
    tagged_attempt_rate: float
    tagged_collision_fraction: float

    @property
    def replications(self) -> int:
        return len(self.backlogs)

    @property
    def mean_backlog(self) -> float:
        return float(self.backlogs.mean())

    def empirical_tail(self, x: int) -> float:
        """Fraction of replications whose sampled backlog exceeds x."""
        if x < 0:
            raise ValueError("x must be nonnegative")
        return float(np.mean(self.backlogs > x))


@dataclass
class _RepStats:
    sample: int
    succ: list
    drops: list
    attempts0: int
    colls0: int
    ticks0: int


def _backoff_draw(rng: np.random.Generator, blocks: bool = False):
    """draw(w) for a window 1 <= w <= 2**32: the value int(rng.integers(w))
    would return, from the same 32-bit words.

    Generator.integers(w) draws nothing for w == 1 and otherwise applies
    Lemire's multiply-and-reject method (Lemire, "Fast random integer
    generation in an interval", ACM TOMACS 2019) to the bit generator's
    next_uint32. draw repeats that arithmetic on the same words. By
    default it calls next_uint32 through the bit generator's ctypes
    interface, without integers()'s per-call overhead, so interleaved
    calls to rng's other methods see the same stream.

    With blocks, draw takes its words from _words, which reads them ahead
    in blocks at a fraction of a ctypes call's cost. Those are the words
    next_uint32 would return only for a fresh rng that nothing else draws
    from.
    """
    c = rng.bit_generator.ctypes
    src, next32 = (_words(rng.bit_generator), next) if blocks else (c.state, c.next_uint32)

    def draw(w: int) -> int:
        if w == 1:
            return 0
        m = next32(src) * w
        if m & 0xFFFFFFFF < w:
            # redraw while the low word falls in the biased cut
            cut = (0x100000000 - w) % w
            while m & 0xFFFFFFFF < cut:
                m = next32(src) * w
        return m >> 32

    return draw


def _words(bit_generator):
    """The words next_uint32 returns from a fresh bit generator: the low half
    of each 64-bit output, then its high half, from blocks of outputs that
    random_raw reads. The blocks double from 8, so a short replication reads
    few, up to 256 (a list of 512 words, about 20 kB)."""
    sizes = itertools.chain((8 << i for i in range(5)), itertools.repeat(256))
    return itertools.chain.from_iterable(
        bit_generator.random_raw(k).astype("<u8", copy=False).view("<u4").tolist()
        for k in sizes)


def _run_one(config: SimConfig, rng: np.random.Generator) -> _RepStats:
    p = config.params
    n = p.n_nodes
    L = slot_length(p)
    difs_arm = _ceil_slots(p.difs, p.idle_slot)
    busy_success = L - difs_arm  # DATA+SIFS+ACK; success cycle is exactly L
    if config.collision_mode == "same-as-success":
        busy_collision = busy_success
    else:
        busy_collision = data_slots(p)
    t_end = _horizon_slots(config)
    s_slot = config.sample_time * (1e6 / p.idle_slot)
    saturated = config.traffic == "saturated"
    q0 = _SATURATED_QUEUE if saturated else 0
    retry_limit = p.retry_limit
    # contention window after r retries: cw_min doubled r times, up to cw_max
    window = [min(p.cw_min << r, p.cw_max) for r in range(retry_limit)]
    # with no arrivals, rng (fresh, as _replicate makes it) draws nothing
    # but backoffs, so their 32-bit words can be read in blocks
    no_arrivals = saturated or config.rate <= 0
    draw = _backoff_draw(rng, no_arrivals)

    # Per-node MAC state in plain lists. bo holds the frozen backoff counter
    # of an empty queue. A backlogged node transmits at its expiry: the slot
    # its DIFS wait ends (difs_end) plus its frozen backoff. Every busy period
    # delays all countdowns alike, so expiry[i] is kept net of the summed
    # delay of past busy periods and re-arming is one addition. expiry is
    # _NEVER for an empty queue; next_tx is the smallest expiry + delay.
    queue = [q0] * n
    bo = [draw(window[0]) for _ in range(n)]
    retries = [0] * n
    difs_end = [difs_arm] * n
    expiry = [difs_arm + b if q0 else _NEVER for b in bo]
    delay = 0
    next_tx = min(expiry)
    # next arrival of each node as (time, node): ties go to the lowest index
    if no_arrivals:
        mean_gap = _INF
        arrivals = [(_INF, j) for j in range(n)]
    else:
        mean_gap = L / config.rate
        arrivals = [(float(rng.exponential(mean_gap)), j) for j in range(n)]
        heapq.heapify(arrivals)
    exponential = rng.exponential
    heapreplace = heapq.heapreplace

    delivered = [0] * n
    succ = [0] * n
    dropped = [0] * n
    attempts0 = colls0 = ticks0 = 0
    sampled = False
    sample_val = 0

    def deliver(limit: float, arm: int):
        # hand queued arrivals with time <= limit to their nodes, in order;
        # a node whose queue was empty starts its DIFS wait, ending at arm
        nonlocal next_tx
        while arrivals[0][0] <= limit:
            u, j = arrivals[0]
            queue[j] += 1
            delivered[j] += 1
            if queue[j] == 1:
                difs_end[j] = arm
                e = arm + bo[j]
                expiry[j] = e - delay
                if e < next_tx:
                    next_tx = e
            heapreplace(arrivals, (u + exponential(mean_gap), j))

    def advance(limit: int):
        # the backlog sample fires the first time the clock would pass
        # s_slot: arrivals up to the sample instant count, departures whose
        # busy period ends later do not
        nonlocal sampled, sample_val
        if not sampled and limit > s_slot:
            deliver(s_slot, limit + difs_arm)
            sample_val = queue[0]
            sampled = True
        deliver(limit, limit + difs_arm)

    t = 0
    while t < t_end:
        u = arrivals[0][0]
        if u <= next_tx - 1 and u <= t_end:
            # an arrival boundary lands inside the countdown (or the system
            # is idle); stop there so the newly backlogged node joins the race
            nt = math.ceil(u)
            if queue[0] and nt > difs_end[0]:
                ticks0 += nt - max(t, difs_end[0])
            advance(nt)
            t = nt
            continue
        tx_t = next_tx
        if tx_t > t_end:
            # the countdown cannot complete: counters freeze at the horizon
            advance(t_end)
            break
        if queue[0] and tx_t > difs_end[0]:
            ticks0 += tx_t - max(t, difs_end[0])
        # find the transmitters first: the DIFS fix-up and the deliveries
        # below can give a node with a zero backoff the same stored expiry
        due = tx_t - delay
        n_tx = expiry.count(due)
        if n_tx == 0:
            raise RuntimeError(f"countdown expired at slot {tx_t} with no transmitter")
        collided = n_tx > 1
        transmitters = ([i for i, e in enumerate(expiry) if e == due] if collided
                        else [expiry.index(due)])
        b_end = tx_t + (busy_collision if collided else busy_success)
        # The busy period and the DIFS after it delay every countdown by
        # arm - tx_t. A node still in its DIFS at tx_t restarts that DIFS and
        # gets back the part it had served; it became backlogged at a stop
        # less than a DIFS before tx_t, so only if the last stop t was.
        arm = b_end + difs_arm
        if t + difs_arm > tx_t:
            for j, d in enumerate(difs_end):
                if d > tx_t:
                    expiry[j] -= d - tx_t
        delay += arm - tx_t
        # advance does nothing unless an arrival or the sample is due
        if arrivals[0][0] <= b_end or (b_end > s_slot and not sampled):
            advance(b_end)
        for i in transmitters:
            if i == 0:
                attempts0 += 1
                ticks0 += 1
                colls0 += collided
            if collided:
                retries[i] += 1
                if retries[i] >= retry_limit:
                    queue[i] -= 1
                    dropped[i] += 1
                    retries[i] = 0
            else:
                queue[i] -= 1
                succ[i] += 1
                retries[i] = 0
            # mandatory fresh backoff between consecutive transmissions
            bo[i] = b = draw(window[retries[i]])
            expiry[i] = arm + b - delay if queue[i] else _NEVER
        difs_end = [arm] * n
        next_tx = min(expiry) + delay
        if next_tx < arm:
            i = expiry.index(next_tx - delay)
            raise RuntimeError(f"node {i}: backoff counter {next_tx - arm} < 0 "
                               f"at slot {tx_t}")
        t = b_end

    if not sampled:
        deliver(s_slot, t_end)
        sample_val = queue[0]
    deliver(t_end, t_end)

    for i in range(n):
        # conservation: every delivered packet is served, dropped, or queued
        queued = queue[i] - q0
        if delivered[i] != succ[i] + dropped[i] + queued:
            raise RuntimeError(f"node {i}: {delivered[i]} packets delivered but "
                               f"{succ[i]} served + {dropped[i]} dropped + "
                               f"{queued} queued")
    return _RepStats(sample=sample_val, succ=succ, drops=dropped,
                     attempts0=attempts0, colls0=colls0, ticks0=ticks0)


def _workers(config: SimConfig) -> int:
    """Processes run() maps the replications over: one per usable CPU, at
    most one per replication, and 1 (in process) for a run too short to
    pay for forking or where fork is missing."""
    if not hasattr(os, "fork") or config.replications * _horizon_slots(config) < _POOL_MIN_SLOTS:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, config.replications)


def _replicate(config: SimConfig, seed: np.random.SeedSequence) -> _RepStats:
    # _run_one is looked up when called, so a forked child calls the one
    # the caller had at fork time
    return _run_one(config, np.random.default_rng(seed))


def _map(fn, items: list, workers: int) -> list:
    """[fn(x) for x in items], in order, in at most this many processes.

    The items split into one contiguous chunk per process. The caller runs
    the first chunk itself; each later chunk runs in a forked child that
    pickles back its results, or the exception it raised, over a pipe. The
    first failure in item order is raised, as the serial map would raise
    it, and any child still running is killed and reaped first, also on
    an interrupt, so no child outlives the call.
    """
    size = -(-len(items) // workers)
    if size >= len(items):
        return list(map(fn, items))
    running = []  # (pid, read end, first item index) of each unreaped child
    try:
        for lo in range(size, len(items), size):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                _child(fn, items[lo:lo + size], w)
            os.close(w)
            running.append((pid, r, lo))
        out = list(map(fn, items[:size]))
        while running:
            pid, r, lo = running[0]
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del running[0]
            os.close(r)
            if code != 0 or not data:
                raise RuntimeError(f"the process running replications {lo}-"
                                   f"{min(lo + size, len(items)) - 1} died "
                                   f"(exit status {code})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            out += value
        return out
    finally:
        for pid, r, _ in running:
            # an interrupt may land between a child's reaping and its removal
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
            os.close(r)


def _child(fn, items: list, w: int) -> None:
    """Run a forked child's chunk, send (True, results) or (False, the
    exception) to the write end w, and leave without returning to the
    caller's stack, its exit handlers or its buffered output."""
    status = 1
    try:
        try:
            reply = True, list(map(fn, items))
        except Exception as e:
            reply = False, e
        with os.fdopen(w, "wb") as fh:
            fh.write(pickle.dumps(reply))
        status = 0
    finally:
        os._exit(status)


def run(config: SimConfig) -> SimResult:
    """Run all replications and aggregate.

    Replication streams come from spawning the root SeedSequence, so each
    replication is independent and the whole result is a pure function of
    (config, seed), whichever process runs each replication.
    """
    _check_runnable(config)
    p = config.params
    L = slot_length(p)
    t_end = _horizon_slots(config)
    children = np.random.SeedSequence(config.seed).spawn(config.replications)
    reps = _map(partial(_replicate, config), children, _workers(config))

    backlogs = np.array([r.sample for r in reps], dtype=np.int64)
    thr = np.array([[s * L / t_end for s in r.succ] for r in reps], dtype=float)
    attempts = sum(r.attempts0 for r in reps)
    ticks = sum(r.ticks0 for r in reps)
    colls = sum(r.colls0 for r in reps)
    return SimResult(
        backlogs=backlogs,
        drops=int(sum(sum(r.drops) for r in reps)),
        throughput_per_node=thr.mean(axis=0),
        tagged_attempt_rate=attempts / ticks if ticks else 0.0,
        tagged_collision_fraction=colls / attempts if attempts else 0.0,
    )
