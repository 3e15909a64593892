"""``ckpt-chain``: checkpoint/restart chains on three application runs.

* commchurn with full record logs -- the log grows with communicator churn,
  so each restart replays more;
* the same commchurn run with ``compact=True`` -- the log is compacted at
  every checkpoint, so replay tracks live handles only;
* HPCG -- large modeled images and a near-empty log, so the cost is in
  drain, write and read.

Each run is cut up to ``CUTS`` times, at seeded fractions of its
uncheckpointed makespan.  Every cut is saved to disk, loaded back, and
restarted onto the next cell of a seeded rotation over MPI implementation x
interconnect x ranks-per-node; the chain goes on until the application
completes.  An operation is one checkpoint -> restart cycle.
"""

from __future__ import annotations

import itertools
import os
import shutil
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from core import MANA, NATIVE, OUT_DIR, CheckFailed, Recorder, check, \
    median, new_engine, trace_len
from figcell import app_ops, numeric_state

#: (label, app, steps, ranks, compact)
CHAINS = (("churn-full", "commchurn", 30, 8, False),
          ("churn-compact", "commchurn", 30, 8, True),
          ("hpcg", "hpcg", 12, 8, False))
#: the cell (mpi, fabric, ranks per node) every chain starts on, and its
#: uncheckpointed reference and native twin run on
SOURCE = ("craympich", "aries", 4)
CUTS = 6
IMPLS = ("craympich", "mpich", "openmpi", "intelmpi")
FABRICS = ("aries", "infiniband", "tcp")
RANKS_PER_NODE = (2, 4, 8)

#: per-cycle spans: checkpoint request -> set on disk, load -> resumed
CKPT_SPANS = ("ckpt.checkpoint", "ckpt.save")
RESTART_SPANS = ("restart.load", "restart.launch", "restart.resume")


@dataclass
class Inputs:
    #: per chain, the virtual-time gaps between cuts as fractions of the
    #: uncheckpointed makespan
    gaps: list[list[float]]
    #: per chain, the restart cells (mpi, fabric, ranks_per_node) in order
    cells: list[list[tuple[str, str, int]]]
    #: uncheckpointed reference of each chain, computed once per process
    refs: dict = field(default_factory=dict)


def make_inputs(seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 0xC4A1])
    rotation = list(itertools.product(IMPLS, FABRICS, RANKS_PER_NODE))
    order = [rotation[i] for i in rng.permutation(len(rotation))]
    gaps, cells = [], []
    for i in range(len(CHAINS)):
        gaps.append([float(g) for g in rng.uniform(0.04, 0.13, size=CUTS)])
        cells.append([order[(i * CUTS + k) % len(order)] for k in range(CUTS)])
    return Inputs(gaps=gaps, cells=cells)


def _pieces(app: str, steps: int, n: int):
    from repro.apps import get_app

    spec = get_app(app)
    cfg = spec.default_config.scaled(n_steps=steps)
    return spec.build(cfg), (lambda rank: spec.memory_bytes(cfg, rank, n))


def _cluster(name: str, n: int, cell):
    from repro.hardware.cluster import make_cluster

    mpi, fabric, rpn = cell
    return make_cluster(name, max(1, n // rpn), interconnect=fabric,
                        default_mpi=mpi)


def reference(chain, inputs: Inputs) -> dict:
    """The chain's uncheckpointed MANA run on the source cell (cached)."""
    from repro.conformance.oracles import conservation_totals, state_fingerprint
    from repro.mana import launch_mana

    label, app, steps, n, compact = chain
    if label not in inputs.refs:
        factory, mem = _pieces(app, steps, n)
        job = launch_mana(_cluster(f"{label}-ref", n, SOURCE), factory, n,
                          ranks_per_node=SOURCE[2], mpi=SOURCE[0],
                          app_mem_bytes=mem, compact=compact)
        job.start()
        makespan = job.run_to_completion()
        inputs.refs[label] = {
            "makespan": makespan,
            "fingerprint": state_fingerprint(job.states),
            "numeric": state_fingerprint(numeric_state(app, job.states)),
            "totals": conservation_totals(job.engine.metrics),
        }
    return inputs.refs[label]


def _disk_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, f))
               for f in os.listdir(directory))


def run_chain(idx: int, inputs: Inputs, rec: Recorder, out: dict) -> None:
    """Launch one run, cut it, restart each cut on the next rotation cell,
    finish it, and check it against its uncheckpointed reference."""
    from repro.conformance.oracles import conservation_totals, state_fingerprint
    from repro.mana import launch_mana
    from repro.runtime import run_native

    label, app, steps, n, compact = CHAINS[idx]
    ref = reference(CHAINS[idx], inputs)
    factory, mem = _pieces(app, steps, n)

    # the native twin of the same inputs: operation count and numeric state
    with rec.span("setup.cluster"):
        cluster = _cluster(f"{label}-native", n, SOURCE)
    engine = new_engine(rec)
    with rec.span("chain.native", NATIVE, collect=True):
        native = run_native(cluster, factory, n, ranks_per_node=SOURCE[2],
                            mpi=SOURCE[0], engine=engine)
    rec.count_events(engine, 0, NATIVE)
    out["app_ops"] += app_ops(native.engine.metrics)
    out["native_sim_s"] += native.engine.now
    out["mana_sim_s"] += ref["makespan"]
    check(ref["numeric"] == state_fingerprint(numeric_state(app, native.states)),
          f"{label}: MANA numeric state differs from native")
    rec.calibrate()

    with rec.span("setup.cluster"):
        cluster = _cluster(f"{label}-src", n, SOURCE)
    with rec.span("setup.launch"):
        job = launch_mana(cluster, factory, n, ranks_per_node=SOURCE[2],
                          mpi=SOURCE[0], engine=new_engine(rec),
                          app_mem_bytes=mem, compact=compact)
    totals = None
    with rec.span("chain.run"):
        job.start()
    for k, gap in enumerate(inputs.gaps[idx]):
        with rec.span("chain.run"):
            job.run_until(job.engine.now + gap * ref["makespan"])
        if job.finished.done:
            break
        out["attempted"] += 1
        try:
            nxt = cycle(job, f"{label}-{k}", inputs.cells[idx][k], factory,
                        n, compact, rec, out)
        except CheckFailed:
            raise
        except Exception as exc:  # a failed cycle ends the chain
            out["failed"] += 1
            out["errors"].append(f"{label} cut {k}: {exc!r}")
            return
        seg = conservation_totals(job.engine.metrics)
        totals = seg if totals is None else totals + seg
        job = nxt
    with rec.span("chain.run", collect=True):
        job.run_to_completion()
    seg = conservation_totals(job.engine.metrics)
    totals = seg if totals is None else totals + seg
    check(state_fingerprint(job.states) == ref["fingerprint"],
          f"{label}: final state differs from the uncheckpointed run")
    check(totals.sent_messages == totals.recv_messages
          and totals.sent_bytes == totals.recv_bytes,
          f"{label}: p2p traffic not conserved over the chain "
          f"({totals.as_dict()})")
    check(totals == ref["totals"],
          f"{label}: chain p2p totals {totals.as_dict()} differ from the "
          f"uncheckpointed run's {ref['totals'].as_dict()}")


def cycle(job, name: str, cell, factory, n: int, compact: bool,
          rec: Recorder, out: dict):
    """Checkpoint ``job``, save the set, load it back, restart it on
    ``cell`` and run until the restarted job has resumed; returns it."""
    from repro.mana import load_checkpoint, restart, save_checkpoint

    spans = {}
    before = trace_len(job.engine)
    with rec.span("ckpt.checkpoint", MANA) as spans["ckpt.checkpoint"]:
        ckpt, report = job.checkpoint()
    rec.count_events(job.engine, before)
    metrics = job.engine.metrics
    out["drained"] += metrics.total("mana.drained_messages")
    out["fs_switches"] += metrics.total("mana.fs_switches")
    out["coll_instances"] += metrics.total("mpi.coll.ops")
    directory = os.path.join(out["dir"], name)
    with rec.span("ckpt.save", MANA) as spans["ckpt.save"]:
        save_checkpoint(ckpt, directory)
    out["disk_bytes"].append(_disk_bytes(directory))
    with rec.span("restart.load", MANA) as spans["restart.load"]:
        loaded = load_checkpoint(directory)
    shutil.rmtree(directory)
    check(loaded.images == ckpt.images,
          f"{name}: loaded images differ from the saved ones")
    mpi, fabric, rpn = cell
    with rec.span("setup.cluster"):
        cluster = _cluster(f"{name}-{mpi}-{fabric}", n, cell)
    engine = new_engine(rec)
    with rec.span("restart.launch", MANA, setup=True) as spans["restart.launch"]:
        job2 = restart(loaded, cluster, factory, ranks_per_node=rpn, mpi=mpi,
                       engine=engine, compact=compact)
    with rec.span("restart.resume", MANA) as spans["restart.resume"]:
        while not job2.resumed.done:
            if not engine.step():
                raise RuntimeError("restarted job never resumed")
    rec.count_events(engine, 0)
    rr = job2.restart_report
    out["sim_ckpt_s"].append(report.total_time)
    out["sim_restart_s"].append(rr.total_time)
    out["entries"] += rr.replayed_entries
    out["bindings"] += rr.restored_bindings
    for key, span in spans.items():
        out["spans"][key].append(span.seconds)
    return job2


def run_round(inputs: Inputs, rec: Recorder) -> dict:
    """One round: every chain once."""
    out = {"attempted": 0, "failed": 0, "errors": [], "app_ops": 0.0,
           "native_sim_s": 0.0, "mana_sim_s": 0.0, "drained": 0.0,
           "fs_switches": 0.0, "coll_instances": 0.0, "entries": 0,
           "bindings": 0, "disk_bytes": [], "sim_ckpt_s": [],
           "sim_restart_s": [], "spans": defaultdict(list),
           "dir": os.path.join(OUT_DIR, f"ckpt-{os.getpid()}")}
    try:
        for idx in range(len(CHAINS)):
            run_chain(idx, inputs, rec, out)
            rec.calibrate()
    finally:
        shutil.rmtree(out["dir"], ignore_errors=True)
    cycles = max(out["attempted"], 1)

    def med(values) -> float:
        return median(values) if values else 0.0

    def per_cycle(names) -> list[float]:
        return [sum(t) for t in zip(*(out["spans"][k] for k in names))]

    extras = {f"{k}_s": med(out["spans"][k]) for k in CKPT_SPANS + RESTART_SPANS}
    extras.update({
        "sim_mana_slowdown": out["mana_sim_s"] / out["native_sim_s"],
        "mana.wrappers.fs_switches_per_op": out["fs_switches"] / cycles,
        "mpilib.coll_instances_per_op": out["coll_instances"] / cycles,
        "mana.record_replay.entries_per_restart": out["entries"] / cycles,
        "mana.record_replay.bindings_per_restart": out["bindings"] / cycles,
        "mana.rank_runtime.drained_per_ckpt": out["drained"] / cycles,
        "ckpt_disk_bytes": med(out["disk_bytes"]),
        "sim_ckpt_s": med(out["sim_ckpt_s"]),
        "sim_restart_s": med(out["sim_restart_s"]),
    })
    return {
        "attempted": out["attempted"],
        "failed": out["failed"],
        "errors": out["errors"],
        "app_ops": out["app_ops"],
        # everything the chains do under MANA but set-up (which includes
        # the ``restart`` call itself)
        "mana_spans": ("chain.run", "ckpt.checkpoint", "ckpt.save",
                       "restart.load", "restart.resume"),
        "native_spans": ("chain.native",),
        "extras": extras,
        "info": {"ckpt_s": med(per_cycle(CKPT_SPANS)),
                 "restart_s": med(per_cycle(RESTART_SPANS))},
    }
