"""Deterministic host-cost budget of one p2p message.

Python call counts are deterministic (unlike wall-clock), so they make a
noise-free guard on the per-message hot path: a ring-shift program on 4
ranks runs natively and under MANA under ``cProfile``, and the calls per
p2p message are compared.  The paper's claim is that interposition costs
one FS-register switch plus one table lookup per MPI call (§3.3); the
simulator's analogue is that a MANA message costs at most a fixed fraction
more host work than a native one.  No wall-clock is asserted.
"""

import cProfile
import os
import pstats

import numpy as np

from repro.hardware.cluster import make_cluster
from repro.mana import launch_mana
from repro.mpilib.launcher import launch
from repro.mprog import Call, Compute, Loop, Program, Seq
from repro.runtime.native import NativeJob
from repro.simtime import Engine

N_RANKS = 4
STEPS = 25
#: MANA calls per message, relative to native
MANA_OVER_NATIVE = 1.35
#: interpreter (repro/mprog) calls per executed leaf
MPROG_PER_LEAF = 5.0

_MPROG_DIR = os.path.join("repro", "mprog") + os.sep


def _init(s):
    s["x"] = np.full(8, float(s["rank"]))


def _shift(s, api):
    rank, size = s["rank"], s["size"]
    return api.sendrecv((rank + 1) % size, s["x"].copy(), (rank - 1) % size,
                        tag=3, size=4096)


def _absorb(s):
    data, _status = s["got"]
    s["x"] = 0.5 * (s["x"] + data)


def ring_factory(rank, size):
    return Program(Seq(
        Compute(_init),
        Loop(STEPS, Seq(Call(_shift, store="got"), Compute(_absorb, cost=1e-6)),
             var="step"),
    ), name="ring-shift")


def _cluster(name):
    return make_cluster(name, 2, interconnect="aries", default_mpi="craympich")


def _profiled(run) -> pstats.Stats:
    prof = cProfile.Profile()
    prof.enable()
    try:
        run()
    finally:
        prof.disable()
    return pstats.Stats(prof)


def _calls(stats: pstats.Stats, path_part: str = "") -> int:
    return sum(v[1] for (fname, _l, _f), v in stats.stats.items()
               if path_part in fname)


def _native():
    engine = Engine()
    world = launch(engine, _cluster("budget-native"), N_RANKS,
                   ranks_per_node=2)
    job = NativeJob(engine, world,
                    [ring_factory(r, N_RANKS) for r in range(N_RANKS)])
    stats = _profiled(job.run_to_completion)
    return job, stats, engine.metrics.total("mpi.p2p.sent_messages")


def _mana():
    engine = Engine()
    job = launch_mana(_cluster("budget-mana"), ring_factory, N_RANKS,
                      ranks_per_node=2, engine=engine)
    stats = _profiled(lambda: (job.start(), job.run_to_completion()))
    return job, stats, engine.metrics.total("mpi.p2p.sent_messages")


def test_mana_message_costs_bounded_multiple_of_native():
    native, n_stats, n_msgs = _native()
    mana, m_stats, m_msgs = _mana()
    assert n_msgs == m_msgs == N_RANKS * STEPS
    for n_state, m_state in zip(native.states, mana.states):
        np.testing.assert_array_equal(n_state["x"], m_state["x"])
    native_per_msg = _calls(n_stats) / n_msgs
    mana_per_msg = _calls(m_stats) / m_msgs
    assert mana_per_msg <= MANA_OVER_NATIVE * native_per_msg, (
        f"MANA {mana_per_msg:.1f} calls/msg vs native {native_per_msg:.1f}"
    )


def test_interpreter_calls_per_leaf():
    native, n_stats, _ = _native()
    mana, m_stats, _ = _mana()
    for drivers, stats in ((native.drivers, n_stats),
                           ([rt.driver for rt in mana.runtimes], m_stats)):
        leaves = sum(d.interp.leaves_done for d in drivers)
        assert leaves == N_RANKS * (1 + 2 * STEPS)
        per_leaf = _calls(stats, _MPROG_DIR) / leaves
        assert per_leaf <= MPROG_PER_LEAF, f"{per_leaf:.2f} mprog calls/leaf"
