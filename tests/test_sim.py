"""Simulator invariants, frozen regressions, and a slot-by-slot reference.

The reference model in _reference_rep replays one replication by stepping
every idle slot instead of jumping event to event. It shares no code with
the simulator loop, only the documented conventions: draw order, DIFS
re-arming, the sample barrier, busy periods running to completion, and the
frozen final countdown window.
"""
import math
import os
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import snc80211
from snc80211 import sim
from snc80211.cli import main
from snc80211.dcf import Params80211, data_slots, slot_length
from snc80211.sim import SimConfig, SimResult, run
from snc80211.sim import _backoff_draw, _run_one  # white-box: compared against references


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(traffic="bursty")
    with pytest.raises(ValueError):
        SimConfig(collision_mode="short")
    with pytest.raises(ValueError):
        SimConfig(traffic="poisson", rate=-0.1)
    with pytest.raises(ValueError):
        SimConfig(replications=0)
    with pytest.raises(ValueError):
        SimConfig(duration=0.0)
    with pytest.raises(ValueError):
        SimConfig(duration=10.0, sample_time=11.0)
    with pytest.raises(ValueError):
        SimConfig(sample_time=-1.0)


def test_horizon_and_rate_limits_name_the_setting():
    # the empty-queue sentinel 2**62 must lie past every horizon; the
    # duration is compared before it is converted to whole slots
    slot_s = Params80211().idle_slot / 1e6
    SimConfig(duration=0.99 * 2.0 ** 62 * slot_s, sample_time=0.0)
    for duration in (2.0 ** 62 * slot_s, 1e308):
        with pytest.raises(ValueError, match=r"^duration .* 2\*\*62 idle slots"):
            SimConfig(duration=duration, sample_time=0.0)
    # one arrival per idle slot per node on average is the most run() takes
    L = slot_length(Params80211())
    cfg = SimConfig(traffic="poisson", rate=float(L), duration=0.01,
                    replications=1, sample_time=0.01)
    assert run(cfg).replications == 1
    with pytest.raises(ValueError, match=r"^rate 39\.5 exceeds the simulator's limit of 39 "):
        run(replace(cfg, rate=L + 0.5))


def test_node_and_replication_limits_name_the_setting():
    # refused before any replication is seeded: at most the 2007 stations
    # of the association-ID range, and replications whose seeds and stats
    # would hold past 1 GB at 840 B each plus 112 B per node
    check = sim._check_runnable
    check(SimConfig(params=Params80211(n_nodes=2007), rate=0.04))
    with pytest.raises(ValueError, match=r"^n_nodes = 2008 exceeds the simulator's limit of 2007 "):
        check(SimConfig(params=Params80211(n_nodes=2008), rate=0.04))
    check(SimConfig(rate=0.04, replications=510_204))  # 10 nodes: 0.99999984 GB
    with pytest.raises(ValueError, match=r"^replications = 510205 with n_nodes = 10 would hold "):
        check(SimConfig(rate=0.04, replications=510_205))
    with pytest.raises(ValueError, match=r"^replications = 5000 with n_nodes = 2007 would hold "):
        check(SimConfig(params=Params80211(n_nodes=2007), rate=0.04, replications=5000))


def test_deterministic_replay():
    cfg = SimConfig(traffic="poisson", rate=0.09, duration=5.0,
                    replications=8, sample_time=5.0, seed=123)
    a, b = run(cfg), run(cfg)
    assert np.array_equal(a.backlogs, b.backlogs)
    assert np.array_equal(a.throughput_per_node, b.throughput_per_node)
    assert a.tagged_attempt_rate == b.tagged_attempt_rate
    c = run(SimConfig(traffic="poisson", rate=0.09, duration=5.0,
                      replications=8, sample_time=5.0, seed=124))
    assert not np.array_equal(a.backlogs, c.backlogs)


def test_zero_rate_is_silent():
    res = run(SimConfig(traffic="poisson", rate=0.0, duration=2.0,
                        replications=4, sample_time=1.0, seed=1))
    assert np.array_equal(res.backlogs, np.zeros(4, dtype=np.int64))
    assert res.drops == 0
    assert np.all(res.throughput_per_node == 0.0)
    assert res.tagged_attempt_rate == 0.0


def test_empirical_tail():
    res = SimResult(backlogs=np.array([0, 1, 1, 3]), drops=0,
                    throughput_per_node=np.zeros(1),
                    tagged_attempt_rate=0.0, tagged_collision_fraction=0.0)
    assert (res.replications, res.mean_backlog) == (4, 1.25)
    assert res.empirical_tail(0) == 0.75
    assert res.empirical_tail(1) == 0.25
    assert res.empirical_tail(2) == 0.25
    assert res.empirical_tail(3) == 0.0
    with pytest.raises(ValueError):
        res.empirical_tail(-1)


def test_single_saturated_node_never_collides():
    res = run(SimConfig(params=Params80211(n_nodes=1), traffic="saturated",
                        duration=50.0, replications=2, sample_time=50.0, seed=2))
    assert res.tagged_collision_fraction == 0.0
    assert res.drops == 0
    # cycle = fresh backoff (mean 15.5 slots) + L slots of exchange
    assert float(res.throughput_per_node.mean()) == pytest.approx(39.0 / 54.5, abs=0.005)
    assert res.tagged_attempt_rate == pytest.approx(1.0 / 16.5, abs=0.002)


def test_saturated_regression_matches_analytic_operating_point():
    res = run(SimConfig(traffic="saturated", duration=200.0, replications=5,
                        sample_time=200.0, seed=42))
    # bands around the fixed point (tau = 0.0376, eta = 0.2918)
    assert 0.034 <= res.tagged_attempt_rate <= 0.040
    assert 0.283 <= res.tagged_collision_fraction <= 0.303
    # frozen values for this exact (config, seed)
    assert res.tagged_attempt_rate == pytest.approx(0.03794, abs=2e-5)
    assert res.tagged_collision_fraction == pytest.approx(0.28381, abs=2e-5)
    assert float(res.throughput_per_node.mean()) == pytest.approx(0.07792, abs=2e-5)


def test_overload_drops_packets():
    res = run(SimConfig(traffic="poisson", rate=0.12, duration=20.0,
                        replications=5, sample_time=20.0, seed=6))
    assert res.drops > 0
    assert res.mean_backlog > 10


def _quantile_of_tail(res, p):
    x = 0
    while res.empirical_tail(x) > p:
        x += 1
    return x


def test_light_load_backlog_quantile(sim_tail_04):
    # packet-level reference point: the 5% backlog quantile sits near 4
    q = _quantile_of_tail(sim_tail_04, 0.05)
    assert 1 <= q <= 7
    thr = float(sim_tail_04.throughput_per_node.mean())
    assert thr == pytest.approx(0.04, abs=0.004)  # all offered load served


def test_heavy_load_backlog_quantile(sim_tail_07):
    # packet-level reference point: the 5% backlog quantile sits near 7
    q = _quantile_of_tail(sim_tail_07, 0.05)
    assert 3 <= q <= 11
    assert sim_tail_07.mean_backlog > 0.2


# --- slot-by-slot reference model ------------------------------------------


def _reference_rep(config: SimConfig, rng: np.random.Generator):
    p = config.params
    n = p.n_nodes
    L = slot_length(p)
    difs_arm = math.ceil(p.difs / p.idle_slot - 1e-9)
    busy_success = L - difs_arm
    if config.collision_mode == "same-as-success":
        busy_collision = busy_success
    else:
        busy_collision = data_slots(p)
    t_end = int(round(config.duration * 1e6 / p.idle_slot))
    s_slot = config.sample_time * 1e6 / p.idle_slot
    saturated = config.traffic == "saturated"
    q0 = (1 << 40) if saturated else 0

    queue = [q0] * n
    cw = [p.cw_min] * n
    bo = [int(rng.integers(p.cw_min)) for _ in range(n)]
    retries = [0] * n
    difs = [difs_arm if q0 else 0 for _ in range(n)]
    if saturated or config.rate <= 0:
        mean_gap = float("inf")
        nxt = [float("inf")] * n
    else:
        mean_gap = L / config.rate
        nxt = [float(rng.exponential(mean_gap)) for _ in range(n)]

    succ = [0] * n
    drops = [0] * n
    attempts0 = colls0 = ticks0 = 0
    sampled = False
    sample_val = 0

    def deliver(limit):
        while True:
            j = min(range(n), key=nxt.__getitem__)
            if nxt[j] > limit:
                return
            queue[j] += 1
            if queue[j] == 1:
                difs[j] = difs_arm
            nxt[j] += rng.exponential(mean_gap)

    def advance(limit):
        nonlocal sampled, sample_val
        if not sampled and limit > s_slot:
            deliver(s_slot)
            sample_val = queue[0]
            sampled = True
        deliver(limit)

    t = 0
    while t < t_end:
        ready = [i for i in range(n)
                 if queue[i] > 0 and difs[i] == 0 and bo[i] == 0]
        if ready:
            # busy periods always run to completion, even past the horizon
            b_end = t + (busy_success if len(ready) == 1 else busy_collision)
            for b in range(t + 1, b_end + 1):
                advance(b)
            if len(ready) == 1:
                i = ready[0]
                if i == 0:
                    attempts0 += 1
                    ticks0 += 1
                queue[i] -= 1
                succ[i] += 1
                cw[i] = p.cw_min
                retries[i] = 0
                bo[i] = int(rng.integers(cw[i]))
            else:
                for i in ready:
                    if i == 0:
                        attempts0 += 1
                        ticks0 += 1
                        colls0 += 1
                    retries[i] += 1
                    if retries[i] >= p.retry_limit:
                        queue[i] -= 1
                        drops[i] += 1
                        cw[i] = p.cw_min
                        retries[i] = 0
                    else:
                        cw[i] = min(2 * cw[i], p.cw_max)
                    bo[i] = int(rng.integers(cw[i]))
            for i in range(n):
                if queue[i] > 0:
                    difs[i] = difs_arm
            t = b_end
            continue
        backlogged = [i for i in range(n) if queue[i] > 0]
        if not backlogged:
            if min(nxt) > t_end:
                break
            advance(t + 1)
            t += 1
            continue
        k = min(difs[i] + bo[i] for i in backlogged)
        if t + k > t_end and min(nxt) > t_end:
            # the countdown cannot complete: counters freeze at the horizon
            advance(t_end)
            t = t_end
            break
        for i in backlogged:
            if difs[i] > 0:
                difs[i] -= 1
            else:
                bo[i] -= 1
                if i == 0:
                    ticks0 += 1
        advance(t + 1)
        t += 1

    if not sampled:
        deliver(s_slot)
        sample_val = queue[0]
    deliver(t_end)
    return sample_val, succ, drops, attempts0, colls0, ticks0


_REFERENCE_CONFIGS = [
    SimConfig(params=Params80211(n_nodes=4), traffic="poisson", rate=0.6,
              duration=0.3, replications=3, sample_time=0.13713, seed=5),
    SimConfig(params=Params80211(n_nodes=3), traffic="saturated",
              duration=0.2, replications=3, sample_time=0.1, seed=9),
    SimConfig(params=Params80211(n_nodes=10), traffic="poisson", rate=0.9,
              duration=0.2, replications=3, sample_time=0.2, seed=11),
    SimConfig(params=Params80211(n_nodes=5), traffic="poisson", rate=0.5,
              duration=0.2, replications=3, sample_time=0.05371, seed=13,
              collision_mode="data-plus-difs"),
    SimConfig(params=Params80211(n_nodes=2), traffic="poisson", rate=0.05,
              duration=0.5, replications=3, sample_time=0.25, seed=3),
]


@pytest.mark.parametrize("cfg", _REFERENCE_CONFIGS,
                         ids=[f"cfg{i}" for i in range(len(_REFERENCE_CONFIGS))])
def test_event_jump_matches_slot_stepper(cfg):
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.replications)
    for child in children:
        got = _run_one(cfg, np.random.default_rng(child))
        want = _reference_rep(cfg, np.random.default_rng(child))
        assert (got.sample, got.succ, got.drops,
                got.attempts0, got.colls0, got.ticks0) == want


# Edge configurations the reference configs above do not reach, each with a
# check that the edge really occurs in the compared replications.
_EDGE_CONFIGS = [
    # a single node: no contention, so every attempt succeeds
    (SimConfig(params=Params80211(n_nodes=1), traffic="poisson", rate=0.6,
               duration=0.5, replications=3, sample_time=0.3, seed=17),
     lambda reps: all(r.colls0 == 0 for r in reps) and sum(r.succ[0] for r in reps) > 0),
    # windows of 24, 48 and 96: not powers of two, so the multiply-and-reject
    # method in integers() may reject a raw draw (with probability about w/2**32)
    (SimConfig(params=Params80211(n_nodes=6, cw_min=24, cw_max=96), traffic="poisson",
               rate=0.5, duration=0.3, replications=3, sample_time=0.2, seed=19),
     lambda reps: sum(r.colls0 for r in reps) > 0),
    # one attempt per packet: every collision drops
    (SimConfig(params=Params80211(n_nodes=8, retry_limit=1), traffic="poisson",
               rate=0.5, duration=0.3, replications=3, sample_time=0.15, seed=23),
     lambda reps: sum(sum(r.drops) for r in reps) > 0),
    # a window of 1: every backoff is 0 and integers(1) consumes no draw
    (SimConfig(params=Params80211(n_nodes=3, cw_min=1, cw_max=1), traffic="poisson",
               rate=0.5, duration=0.2, replications=3, sample_time=0.1, seed=29),
     lambda reps: sum(r.attempts0 for r in reps) > 0),
    # a window above 2**32: integers() draws 64-bit words, and no countdown
    # ends inside the horizon
    (SimConfig(params=Params80211(n_nodes=4, cw_min=1 << 33, cw_max=1 << 33),
               traffic="poisson", rate=0.5, duration=0.1, replications=3,
               sample_time=0.05, seed=31),
     lambda reps: all(r.attempts0 == 0 and r.sample > 0 for r in reps)),
]


@pytest.mark.parametrize("cfg,edge_seen", _EDGE_CONFIGS,
                         ids=["one-node", "cw-not-power-of-two", "retry-limit-1",
                              "cw-1-no-draw", "cw-above-2-32"])
def test_event_jump_matches_slot_stepper_at_edges(cfg, edge_seen):
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.replications)
    reps = []
    for child in children:
        got = _run_one(cfg, np.random.default_rng(child))
        want = _reference_rep(cfg, np.random.default_rng(child))
        assert (got.sample, got.succ, got.drops,
                got.attempts0, got.colls0, got.ticks0) == want
        reps.append(got)
    assert edge_seen(reps)


# 2**31 + 1 makes the multiply-and-reject method reject about half its raw
# draws; windows above 2**32 take 64-bit words; 1 consumes nothing.
_WINDOWS = [1, 2, 3, 24, 32, 1024, (1 << 31) + 1, 1 << 32, (1 << 32) + 1, 1 << 33,
            (1 << 62) + 1, 1 << 63]


def test_backoff_draw_equals_integers():
    # the same values and the same stream as Generator.integers on a twin,
    # with exponential draws interleaved as the simulator does
    order = np.random.default_rng(2019)
    for seed in range(100):
        ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draw = _backoff_draw(rng)
        for _ in range(50):
            w = _WINDOWS[order.integers(len(_WINDOWS))]
            assert draw(w) == int(ref.integers(w)), (seed, w)
            if order.random() < 0.5:
                assert rng.exponential(7.0) == ref.exponential(7.0)
        assert rng.bit_generator.state == ref.bit_generator.state, seed
    for w in ((1 << 63) + 1, 1 << 64):
        with pytest.raises(ValueError, match="out of bounds"):
            ref.integers(w)
        with pytest.raises(ValueError, match="out of bounds"):
            draw(w)


# Workload-sized horizons are too long for the slot stepper. These tuples
# (sample, succ, drops, attempts0, colls0, ticks0) of the first replication
# were computed with the earlier event loop, which rescanned every node on
# each event and matched the slot stepper on all configs above.
_FROZEN_REPS = [
    (SimConfig(traffic="poisson", rate=0.07, duration=50.0, replications=1,
               sample_time=50.0, seed=7),
     (1, [4442, 4464, 4509, 4364, 4541, 4485, 4526, 4396, 4465, 4654],
      [0] * 10, 4935, 493, 93732)),
    (SimConfig(traffic="saturated", duration=50.0, replications=1,
               sample_time=50.0, seed=42),
     ((1 << 40) - 5255, [5255, 4860, 5028, 5082, 5206, 5019, 4874, 4831, 5080, 4826],
      [0, 4, 1, 0, 0, 0, 1, 2, 0, 0], 7316, 2061, 184694)),
    (SimConfig(traffic="poisson", rate=0.07, duration=50.0, replications=1,
               sample_time=50.0, seed=3, collision_mode="data-plus-difs"),
     (0, [4396, 4498, 4515, 4568, 4486, 4485, 4450, 4557, 4479, 4546],
      [0] * 10, 4850, 454, 89500)),
    (SimConfig(traffic="poisson", rate=0.078, duration=50.0, replications=1,
               sample_time=23.45678, seed=11),
     (1, [5065, 5011, 5053, 5073, 5074, 5085, 5002, 5028, 5048, 4934],
      [0, 0, 0, 1, 0, 0, 0, 0, 1, 1], 6437, 1372, 142299)),
]


@pytest.mark.parametrize("cfg,want", _FROZEN_REPS,
                         ids=["poisson-007", "saturated", "data-plus-difs-007",
                              "mid-run-sample"])
def test_frozen_replication_at_workload_horizon(cfg, want):
    child = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    got = _run_one(cfg, np.random.default_rng(child))
    assert (got.sample, got.succ, got.drops,
            got.attempts0, got.colls0, got.ticks0) == want


# At the pool threshold: 5 x 6 s is 1.5 million replication-slots. Five
# replications over two processes make chunks of 3 and 2, over three
# processes chunks of 2, 2 and 1.
_POOL_CFG = SimConfig(traffic="poisson", rate=0.04, duration=6.0, replications=5,
                      sample_time=6.0, seed=5)
_POOL_ARGV = ["--rate", "0.04", "--duration", "6", "--replications", "5",
              "--sample-time", "6", "--seed", "5", "--format", "json"]


def test_pool_gives_the_serial_result_for_any_worker_count(monkeypatch, capsys, tmp_path):
    assert _POOL_CFG.replications * sim._horizon_slots(_POOL_CFG) >= sim._POOL_MIN_SLOTS
    caller, serial_replicate = os.getpid(), sim._replicate
    log = tmp_path / "ran"

    def logged_replicate(config, seed):
        # one short append per replication: which one ran, in which process
        with open(log, "a") as fh:
            fh.write(f"{seed.spawn_key[-1]} {os.getpid()}\n")
        return serial_replicate(config, seed)

    monkeypatch.setattr(sim, "_replicate", logged_replicate)
    results, outputs = {}, {}
    chunks = {1: ["01234"], 2: ["012", "34"], 3: ["01", "23", "4"]}
    for workers in (1, 2, 3):
        monkeypatch.setattr(sim, "_workers", lambda config: workers)
        log.write_text("")
        results[workers] = run(_POOL_CFG)
        ran = dict(line.split() for line in log.read_text().splitlines())
        assert sorted(ran) == list("01234")
        # the caller runs the first chunk, and each later chunk has its own child
        pids = [{int(ran[i]) for i in chunk} for chunk in chunks[workers]]
        assert pids[0] == {caller}
        children = [pid for chunk in pids[1:] for pid in chunk]
        assert len(children) == len(set(children) - {caller}) == workers - 1
        for pid in children:
            # raised for a pid that is no child of this process, running or unreaped
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        for command in ("simulate", "compare"):
            assert main([command, *_POOL_ARGV]) == 0
            outputs[workers, command] = capsys.readouterr().out
    a = results[1]
    for workers in (2, 3):
        b = results[workers]
        assert np.array_equal(a.backlogs, b.backlogs)
        assert np.array_equal(a.throughput_per_node, b.throughput_per_node)
        assert (a.drops, a.tagged_attempt_rate, a.tagged_collision_fraction) == \
            (b.drops, b.tagged_attempt_rate, b.tagged_collision_fraction)
        for command in ("simulate", "compare"):
            assert outputs[1, command] == outputs[workers, command], (workers, command)


def test_worker_count_caps_at_cpus_and_replications(monkeypatch):
    # the rule alone, evaluated for CPU counts that no test may start
    def no_fork():
        raise AssertionError("_workers forked")

    monkeypatch.setattr(os, "fork", no_fork)
    many = replace(_POOL_CFG, replications=40)
    short = replace(_POOL_CFG, duration=1.0, sample_time=1.0)
    assert sim._workers(short) == 1  # below the threshold: in process
    for cpus in (10 ** 6, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(cpus))
        assert sim._workers(many) == min(cpus, 40)
        assert sim._workers(_POOL_CFG) == min(cpus, 5)
    monkeypatch.delattr(os, "sched_getaffinity")
    for cpus in (10 ** 6, 1, None):  # os.cpu_count() may not know
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert sim._workers(many) == min(cpus or 1, 40)
    monkeypatch.delattr(os, "fork")
    assert sim._workers(many) == 1


def test_import_and_serial_run_skip_the_pool_modules():
    # importing them costs 8-23 ms, which set-up, the other subcommands and
    # a pooled run (2 x 50 s is 5 million slots, here over 2 processes even
    # on one CPU) must not pay
    for forced, duration in (("", "1"), ("sim._workers = lambda config: 2\n", "50")):
        code = ("import sys\nfrom snc80211 import cli, sim\n" + forced +
                "cli.main(['simulate', '--rate', '0.04', '--replications', '2', "
                f"'--duration', '{duration}', '--sample-time', '1'])\n"
                "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
                "if m in sys.modules))")
        rc, out, err = _run_capped([sys.executable, "-c", code])
        assert (rc, out.splitlines()[-1]) == (0, "[]"), err


# Runs the CLI over 4 replications and a forced process count (over 2
# processes the caller runs replications 0-1 and one child 2-3). The
# replications listed in `fail` raise `error`; in a child, `child` = exit
# ends the process at once and hang sleeps first. Prints "left" if a child
# process of the run is still there (running or unreaped) once main returns.
_FAILING_RUN = """
import builtins, os, sys, time
from snc80211 import cli, sim
workers, fail, error, child = int(sys.argv[1]), sys.argv[2].split(","), sys.argv[3], sys.argv[4]
caller, serial_replicate = os.getpid(), sim._replicate
def replicate(config, seed):
    i = seed.spawn_key[-1]
    if os.getpid() != caller:
        if child == "exit":
            os._exit(1)
        if child == "hang":
            time.sleep(600)
    if str(i) in fail:
        raise getattr(builtins, error)(f"replication {i}: conservation violated")
    return serial_replicate(config, seed)
sim._workers = lambda config: workers
sim._replicate = replicate
try:
    rc = cli.main(["simulate", "--rate", "0.04", "--duration", "1",
                   "--replications", "4", "--sample-time", "1"])
except KeyboardInterrupt:
    print("interrupted")
    rc = 130
try:
    os.waitpid(-1, os.WNOHANG)
    print("left")
except ChildProcessError:
    pass
sys.exit(rc)
"""


def _run_capped(argv, timeout: float = 60.0):
    """(exit code, stdout, stderr) of argv, run without a config from the
    environment in its own session, which is killed whole if it outlives
    the timeout: a hung pool fails the test and leaves no process behind."""
    env = {k: v for k, v in os.environ.items() if k != "SNC80211_CONFIG"}
    src = str(Path(snc80211.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"{argv[-2:]} still running after {timeout} s")
    return proc.returncode, out, err


def _run_failing(workers: int, fail: str, error: str = "RuntimeError", child: str = "run"):
    return _run_capped([sys.executable, "-c", _FAILING_RUN, str(workers), fail, error, child])


def test_check_failure_in_a_worker_exits_as_in_process():
    # the first failure in replication order, with the same error line and
    # exit code 4, whichever process raised it: here the caller's, though
    # the child fails too
    for fail, first in (("0,1,2,3", 0), ("1,3", 1)):
        want = (4, "", f"error: replication {first}: conservation violated\n")
        assert _run_failing(1, fail) == _run_failing(2, fail) == want, fail


def test_check_failure_only_in_the_last_chunk_exits_as_in_process():
    # replication 3 runs in the child, which sends its error back
    want = (4, "", "error: replication 3: conservation violated\n")
    assert _run_failing(1, "3") == _run_failing(2, "3") == want


def test_caller_failure_kills_the_running_child():
    # the caller's check fails while the child still sleeps: the run exits
    # at once, as in process, and leaves no child behind
    want = (4, "", "error: replication 0: conservation violated\n")
    assert _run_failing(1, "0") == _run_failing(2, "0", child="hang") == want


def test_interrupt_in_the_caller_kills_the_running_child():
    rc, out, err = _run_failing(2, "0", error="KeyboardInterrupt", child="hang")
    assert (rc, out, err) == (130, "interrupted\n", "")


def test_worker_that_dies_breaks_the_pool_without_hanging():
    # a child that exits without sending its results fails the run with
    # one RuntimeError line, exit 4, once the caller has reaped it
    rc, out, err = _run_failing(2, "", child="exit")
    assert (rc, out) == (4, ""), err
    assert err == "error: the process running replications 2-3 died (exit status 1)\n"
