"""``fig-cell``: Fig. 2/3 cells, each run natively and under MANA.

Every cell runs on Cray MPICH over Aries, spread over 2-4 nodes so that
both shared memory and the fabric carry traffic:

* GROMACS, 16 ranks on 4 nodes -- call-dense small point-to-point messages;
* HPCG, 16 ranks on 2 nodes -- allreduce plus 27-point halo exchange;
* LULESH, 27 ranks on 3 nodes -- a 3-D Cartesian communicator;
* the benchmark's own ring-shift + allreduce program, 12 ranks on 3 nodes,
  whose rank inputs come from the seed and whose final values numpy
  computes independently of the simulator.

An operation is one application MPI operation: a point-to-point message
sent or a collective instance, counted on the native run.  No checkpoint is
taken, so the checkpoint path does no work here, and the native half does
not touch MANA at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from core import MANA, NATIVE, Recorder, check, new_engine, trace_len

RING_RANKS = 12
#: (app, ranks, nodes); "ring" is the benchmark's own program
CELLS = (("gromacs", 16, 4), ("hpcg", 16, 2), ("lulesh", 27, 3),
         ("ring", RING_RANKS, 3))

#: state entries that hold an MPI handle: a library ``Communicator``
#: natively, a virtual id under MANA -- equal by design only in meaning
HANDLE_KEYS = {"lulesh": ("cart",), "commchurn": ("pdup", "psub")}

RING_STEPS = 40
RING_WIDTH = 8
RING_BYTES = 4096


# ------------------------------------------------------------ ring program

def ring_inputs(seed: int, size: int) -> np.ndarray:
    """Each rank's starting vector, drawn from the workload seed."""
    return np.random.default_rng([seed, 0x5151]).random((size, RING_WIDTH))


class _RingInit:
    """Compute leaf: install this rank's seeded starting vector."""

    def __init__(self, x0: np.ndarray) -> None:
        self.x0 = x0

    def __call__(self, state) -> None:
        state["x"] = self.x0.copy()


def _ring_shift(state, api):
    rank, size = state["rank"], state["size"]
    return api.sendrecv((rank + 1) % size, state["x"].copy(),
                        (rank - 1) % size, tag=5, size=RING_BYTES)


def _ring_absorb(state) -> None:
    data, _status = state["_recv"]
    state["x"] = 0.5 * state["x"] + 0.5 * data


def _ring_reduce(state, api):
    from repro.mpilib import SUM

    return api.allreduce(state["x"], SUM, size=RING_WIDTH * 8)


def _ring_mix(state) -> None:
    state["x"] = state["x"] + 1e-3 * state["_sum"]


def ring_factory(x0: np.ndarray):
    """Program factory of the ring-shift + allreduce program."""
    from repro.mprog import Call, Compute, Loop, Program, Seq

    def factory(rank: int, size: int):
        body = Seq(
            Call(_ring_shift, store="_recv", label="ring-shift"),
            Compute(_ring_absorb, cost=2e-6),
            Call(_ring_reduce, store="_sum", label="ring-allreduce"),
            Compute(_ring_mix, cost=1e-6),
        )
        return Program(Seq(Compute(_RingInit(x0[rank])),
                           Loop(RING_STEPS, body, var="step")), name="ring")

    return factory


def ring_reference(x0: np.ndarray, steps: int = RING_STEPS) -> np.ndarray:
    """Final per-rank vectors of the ring program, computed by numpy alone:
    rank r receives rank r-1's vector, and the allreduce folds in rank
    order exactly as MPI_SUM is defined to."""
    x = x0.copy()
    for _ in range(steps):
        x = 0.5 * x + 0.5 * np.roll(x, 1, axis=0)
        total = x[0].copy()
        for row in x[1:]:
            total = total + row
        x = x + 1e-3 * total
    return x


# ---------------------------------------------------------------- workload

@dataclass
class Inputs:
    #: the ring program's per-rank starting vectors
    ring_x0: np.ndarray


def make_inputs(seed: int) -> Inputs:
    return Inputs(ring_x0=ring_inputs(seed, RING_RANKS))


def numeric_state(app: str, states) -> list[dict]:
    """Each rank's state without handle-valued entries."""
    skip = HANDLE_KEYS.get(app, ())
    return [{k: v for k, v in dict(s).items() if k not in skip}
            for s in states]


def app_ops(metrics) -> float:
    """Application MPI operations on one engine: p2p messages sent plus
    collective instances."""
    return metrics.total("mpi.p2p.sent_messages") + metrics.total("mpi.coll.ops")


def _program(app: str, inputs: Inputs):
    from repro.apps import get_app

    if app == "ring":
        return ring_factory(inputs.ring_x0)
    spec = get_app(app)
    return spec.build(spec.default_config)


def _mem(app: str, n: int):
    from repro.apps import get_app

    if app == "ring":
        return 1 << 20
    spec = get_app(app)
    return lambda rank: spec.memory_bytes(spec.default_config, rank, n)


def _cluster(name: str, nodes: int):
    from repro.hardware.cluster import make_cluster

    return make_cluster(name, nodes, interconnect="aries",
                        default_mpi="craympich")


def new_totals() -> dict:
    """Empty per-round tallies for :func:`run_cell`."""
    return {"ops": 0.0, "failed": 0, "native_sim_s": 0.0, "mana_sim_s": 0.0,
            "fs_switches": 0.0, "coll_instances": 0.0, "errors": []}


def run_cell(app: str, n: int, nodes: int, inputs: Inputs, rec: Recorder,
             totals: dict) -> None:
    """One cell: the native run, the MANA run, and every check between
    them.  Adds the cell's operations and simulated makespans to ``totals``."""
    from repro.conformance.oracles import conservation_totals, state_fingerprint
    from repro.mana import launch_mana
    from repro.runtime import run_native

    rpn = n // nodes
    with rec.span("setup.cluster"):
        cluster = _cluster(f"fig-{app}-native", nodes)
    engine = new_engine(rec)
    with rec.span("cell.native", NATIVE, collect=True):
        native = run_native(cluster, _program(app, inputs), n,
                            ranks_per_node=rpn, engine=engine)
    rec.count_events(engine, 0, NATIVE)
    ops = app_ops(native.engine.metrics)
    totals["ops"] += ops
    totals["native_sim_s"] += native.engine.now
    rec.calibrate()

    with rec.span("setup.cluster"):
        cluster = _cluster(f"fig-{app}-mana", nodes)
    engine = new_engine(rec)
    with rec.span("setup.launch"):
        job = launch_mana(cluster, _program(app, inputs), n,
                          ranks_per_node=rpn, engine=engine,
                          app_mem_bytes=_mem(app, n))
    before = trace_len(engine)
    try:
        with rec.span("cell.mana", MANA, collect=True):
            job.start()
            mana_sim = job.run_to_completion()
    except Exception as exc:  # a failed run is a failed operation
        totals["failed"] += ops
        totals["errors"].append(f"{app}: MANA run raised {exc!r}")
        return
    rec.count_events(engine, before, MANA)
    totals["mana_sim_s"] += mana_sim
    totals["fs_switches"] += job.engine.metrics.total("mana.fs_switches")
    totals["coll_instances"] += job.engine.metrics.total("mpi.coll.ops")

    if app == "ring":
        want = ring_reference(inputs.ring_x0)
        for label, states in (("native", native.states), ("MANA", job.states)):
            got = np.stack([s["x"] for s in states])
            check(np.array_equal(got, want),
                  f"ring program under {label} differs from numpy")
    check(state_fingerprint(numeric_state(app, job.states))
          == state_fingerprint(numeric_state(app, native.states)),
          f"{app}: MANA numeric state differs from native")
    for label, metrics in (("native", native.engine.metrics),
                           ("MANA", job.engine.metrics)):
        t = conservation_totals(metrics)
        check(t.sent_messages == t.recv_messages
              and t.sent_bytes == t.recv_bytes,
              f"{app}: {label} p2p sent != received ({t.as_dict()})")
    check(conservation_totals(job.engine.metrics).sent_messages
          == conservation_totals(native.engine.metrics).sent_messages,
          f"{app}: MANA p2p message count differs from native")


def run_round(inputs: Inputs, rec: Recorder) -> dict:
    """One round: every cell once.  Returns the round's figures."""
    totals = new_totals()
    for app, n, nodes in CELLS:
        run_cell(app, n, nodes, inputs, rec, totals)
        rec.calibrate()
    ops = totals["ops"]
    return {
        "attempted": int(ops),
        "failed": int(totals["failed"]),
        "errors": totals["errors"],
        "app_ops": ops,
        "mana_spans": ("cell.mana",),
        "native_spans": ("cell.native",),
        "extras": {
            "sim_mana_slowdown": totals["mana_sim_s"] / totals["native_sim_s"],
            "mana.wrappers.fs_switches_per_op": totals["fs_switches"] / ops,
            "mpilib.coll_instances_per_op": totals["coll_instances"] / ops,
        },
        "info": {},
    }
