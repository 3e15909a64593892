"""``facility-preempt``: the ``priority`` job mix under backfill on 8 nodes.

Jobs arrive staggered; about a fifth of them are wide urgent jobs that force
induced-checkpoint preemption of running tenants and requeue-from-image
restarts through the shared-Lustre arbiter.  It is the only workload with
many jobs on one engine, the only one that uses the scheduler and the
arbiter, and the only one where checkpoints contend for shared storage.

The job list is the ``priority`` mix that :func:`generate_jobs` draws for
``MIX_SEED``; the workload seed deals its arrival times out to the jobs in a
seeded order.  So every seed submits the same jobs, and the seed decides
which of them arrive while which others run -- and hence which tenants get
preempted, and when.  (A job mix drawn afresh per seed changes the total
work by a third from one seed to the next.)

Every job also runs natively on its own, which counts its application MPI
operations; an operation of this workload is one job.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from core import MANA, NATIVE, Recorder, check, new_engine, trace_len
from figcell import app_ops

N_JOBS = 32
#: the drain runs in slices of this much virtual time (the makespan is
#: 1-2 s), with a host-speed sample between slices
DRAIN_SLICE_S = 0.1
DRAIN_SLICES = 12
#: seed of the job mix itself (6 of its 32 jobs are wide and urgent)
MIX_SEED = 5
N_NODES = 8
CORES_PER_NODE = 16


@dataclass
class Inputs:
    seed: int
    jobs: list
    #: solo uncheckpointed fingerprints, by job id, computed once per process
    solo: dict = field(default_factory=dict)


def make_inputs(seed: int) -> Inputs:
    from repro.facility import generate_jobs

    mix = generate_jobs("priority", N_JOBS, seed=MIX_SEED)
    arrivals = [spec.submit_time for spec in mix]
    order = np.random.default_rng([seed, 0xFAC1]).permutation(len(mix))
    jobs = [replace(mix[k], job_id=i, submit_time=arrivals[i])
            for i, k in enumerate(order)]
    return Inputs(seed=seed, jobs=jobs)


def _cluster(name: str, nodes: int):
    from repro.hardware.cluster import make_cluster

    return make_cluster(name, nodes, cores_per_node=CORES_PER_NODE,
                        interconnect="aries", default_mpi="craympich")


def _factory(spec):
    from repro.apps import get_app

    app = get_app(spec.app)
    overrides = {"n_steps": spec.n_steps}
    if spec.mem_bytes is not None:
        overrides["mem_bytes"] = spec.mem_bytes
    return app.build(app.default_config.scaled(**overrides))


def solo_fingerprint(spec, inputs: Inputs) -> str:
    """Fingerprint of the job run alone under MANA, never checkpointed."""
    from repro.conformance.oracles import state_fingerprint
    from repro.mana import launch_mana

    if spec.job_id not in inputs.solo:
        job = launch_mana(_cluster(f"solo-{spec.name}", spec.n_nodes),
                          _factory(spec), spec.n_ranks, mpi=spec.mpi)
        job.start()
        job.run_to_completion()
        inputs.solo[spec.job_id] = state_fingerprint(job.states)
    return inputs.solo[spec.job_id]


def run_round(inputs: Inputs, rec: Recorder) -> dict:
    """One round: drain the whole job list, then run every job natively."""
    from repro.facility import Facility, FacilityError
    from repro.runtime import run_native

    n_jobs = len(inputs.jobs)
    errors = []
    with rec.span("setup.cluster"):
        cluster = _cluster("facility", N_NODES)
    engine = new_engine(rec)
    with rec.span("setup.facility"):
        fac = Facility(cluster, scheduler="backfill", engine=engine,
                       seed=inputs.seed)
        fac.submit_all(inputs.jobs)
    before = trace_len(engine)
    drain = 0.0
    try:
        # drained in slices of virtual time, sampling the host's speed
        # between slices
        for k in range(1, DRAIN_SLICES):
            with rec.span("facility.drain", MANA) as piece:
                fac.run(until=k * DRAIN_SLICE_S)
            drain += piece.seconds
            rec.calibrate()
        with rec.span("facility.drain", MANA, collect=True) as piece:
            fac.run()
        drain += piece.seconds
    except FacilityError as exc:
        errors.append(f"facility drain: {exc}")
    rec.count_events(engine, before)
    rec.calibrate()
    rep = fac.report()
    failed = n_jobs - rep.completed_jobs

    for record in rep.records:
        if record.preemptions and record.fingerprint is not None:
            check(record.fingerprint == solo_fingerprint(record.spec, inputs),
                  f"{record.spec.name}: preempted job's final state differs "
                  f"from its solo run")
    check(rep.bytes_read == rep.bytes_written,
          f"storage arbiter read back {rep.bytes_read} bytes of "
          f"{rep.bytes_written} written")

    ops = 0.0
    for spec in inputs.jobs:
        with rec.span("setup.cluster"):
            cluster = _cluster(f"native-{spec.name}", spec.n_nodes)
        engine = new_engine(rec)
        with rec.span("facility.native", NATIVE, collect=True):
            native = run_native(cluster, _factory(spec), spec.n_ranks,
                                mpi=spec.mpi, engine=engine)
        rec.count_events(engine, 0, NATIVE)
        ops += app_ops(native.engine.metrics)
        if spec.job_id % 4 == 3:
            rec.calibrate()

    metrics = fac.engine.metrics
    return {
        "attempted": n_jobs,
        "failed": failed,
        "errors": errors,
        "app_ops": ops,
        "mana_spans": ("facility.drain",),
        "native_spans": ("facility.native",),
        "extras": {
            "facility.preemptions": float(rep.preemptions),
            "facility.storage_bytes": float(rep.bytes_written + rep.bytes_read),
            "sim_makespan_s": rep.makespan,
            "mana.wrappers.fs_switches_per_op":
                metrics.total("mana.fs_switches") / n_jobs,
            "mpilib.coll_instances_per_op":
                metrics.total("mpi.coll.ops") / n_jobs,
            "mana.rank_runtime.drained_per_ckpt":
                metrics.total("mana.drained_messages") / max(rep.checkpoints, 1),
        },
        "info": {"facility_jobs_per_s": rep.completed_jobs / drain},
    }
