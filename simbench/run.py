#!/usr/bin/env python3
"""Benchmark of the simulator's own host cost, end to end and per layer.

Run from the repository root::

    python3 simbench/run.py --workload fig-cell --seed 1 --seconds 20 --trace 0

Workloads: ``fig-cell``, ``ckpt-chain``, ``facility-preempt`` (see
``simbench/README.md``).  The run imports ``repro`` from ``src/``, builds its
inputs from ``--seed``, runs one warm-up round, then whole rounds of the
workload until ``--seconds`` have passed, checking the program's outputs in
every round.  Figures are medians over the measured rounds.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one more
untraced round and then profiles the rounds that follow, attributing every
Python call and its self time to a layer, and reports the per-layer metrics
plus the tracing overhead.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {
    "fig-cell": "figcell",
    "ckpt-chain": "ckptchain",
    "facility-preempt": "facility_preempt",
}

#: per-layer figures some workloads produce; 0 where a workload has none
EXTRAS = {
    "sim_mana_slowdown": "x",
    "mana.wrappers.fs_switches_per_op": "count",
    "mpilib.coll_instances_per_op": "count",
    "ckpt.checkpoint_s": "s",
    "ckpt.save_s": "s",
    "restart.load_s": "s",
    "restart.launch_s": "s",
    "restart.resume_s": "s",
    "mana.record_replay.entries_per_restart": "count",
    "mana.record_replay.bindings_per_restart": "count",
    "mana.rank_runtime.drained_per_ckpt": "count",
    "ckpt_disk_bytes": "bytes",
    "sim_ckpt_s": "s",
    "sim_restart_s": "s",
    "facility.preemptions": "count",
    "facility.storage_bytes": "bytes",
    "sim_makespan_s": "s",
}

#: per-workload figures printed on untraced runs (raw wall time, ungated)
INFO_UNITS = {"ckpt_s": "s", "restart_s": "s", "facility_jobs_per_s": "jobs/s"}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


#: the modules the workloads call into
PROGRAM_MODULES = ("repro.apps", "repro.conformance.oracles", "repro.facility",
                   "repro.hardware.cluster", "repro.mana", "repro.runtime")

#: run in a fresh interpreter: import the program, then sample the host's
#: speed there, and print the import's seconds scaled to the reference speed
_IMPORT_PROBE = (
    "import importlib, sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "for name in sys.argv[3:]:\n"
    "    importlib.import_module(name)\n"
    "seconds = time.perf_counter() - t0\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from core import HostSpeed\n"
    "host = HostSpeed()\n"
    "print(seconds / host.factor([host.sample() for _ in range(3)]))\n"
)

#: fresh interpreters whose import time is measured; the median is reported
IMPORT_SAMPLES = 5


def import_program() -> None:
    """Import ``repro`` (and the modules the workloads call) from ``src/``."""
    import importlib

    sys.path.insert(0, os.path.join(ROOT, "src"))
    for name in PROGRAM_MODULES:
        importlib.import_module(name)


def import_seconds() -> float:
    """Median seconds a fresh interpreter takes to import the program,
    scaled to the reference host speed."""
    from core import median

    out = []
    for _ in range(IMPORT_SAMPLES):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, os.path.join(ROOT, "src"),
             HERE, *PROGRAM_MODULES],
            capture_output=True, text=True, check=True, timeout=120)
        out.append(float(probe.stdout))
    return median(out)


def run_rounds(module, inputs, rec, seconds: float, traced: bool) -> dict:
    """Warm up, then run whole rounds until ``seconds`` have passed."""
    from core import median

    results, walls = [], []
    attempted = failed = 0
    errors: list[str] = []

    def one_round() -> dict:
        nonlocal attempted, failed
        # every round starts from a collected heap, and what survives it
        # (the program's modules, cached references, the host-speed
        # kernel's data) is frozen out of the collector's scans
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        rec.new_round()
        t0 = time.perf_counter()
        res = module.run_round(inputs, rec)
        res["wall"] = time.perf_counter() - t0
        rec.calibrate()
        # span totals scaled to the reference host speed
        res["mana_wall"] = sum(rec.norm[n] for n in res["mana_spans"])
        res["native_wall"] = sum(rec.norm[n] for n in res["native_spans"])
        res["setup"] = rec.norm["setup"]
        attempted += res["attempted"]
        failed += res["failed"]
        errors.extend(res["errors"])
        return res

    rec.calibrate()
    one_round()                                  # warm-up, not measured
    untraced_wall = one_round()["wall"] if traced else None
    rec.profiling = traced
    deadline = time.perf_counter() + seconds
    while True:
        res = one_round()
        results.append(res)
        walls.append(res["wall"])
        if time.perf_counter() >= deadline:
            break
    rec.profiling = False
    return {"results": results, "attempted": attempted, "failed": failed,
            "errors": errors,
            "overhead": (median(walls) / untraced_wall) if traced else None}


def end_to_end(out: dict, import_s: float) -> dict:
    """The end-to-end metrics, from wall times scaled to the reference host
    speed."""
    from core import median

    res = out["results"]
    return {
        "setup_s": (import_s + median([r["setup"] for r in res]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "mana_ops_per_s": (median([r["app_ops"] / r["mana_wall"]
                                   for r in res]), "ops/s"),
        "native_ops_per_s": (median([r["app_ops"] / r["native_wall"]
                                     for r in res]), "ops/s"),
    }


def per_layer(out: dict, rec) -> tuple[dict, dict]:
    """The per-layer metrics, and (printed only) the native runs' calls per
    application MPI operation by layer."""
    from core import MANA, NATIVE, layer_metrics, median

    res = out["results"]
    ops = sum(r["attempted"] for r in res)
    metrics = layer_metrics(rec, ops)
    native_ops = sum(r["app_ops"] for r in res)
    native = {layer: calls / native_ops
              for layer, (calls, _self_s) in rec.layer_stats(NATIVE).items()
              if calls}
    metrics["all.native_calls_per_op"] = (sum(native.values()), "calls")
    metrics["simtime.events_per_op"] = (rec.events[MANA] / ops, "events")
    for name, unit in EXTRAS.items():
        metrics[name] = (median([r["extras"].get(name, 0.0) for r in res]),
                         unit)
    metrics["trace.overhead"] = (out["overhead"], "x")
    return metrics, native


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, HERE)
    from core import OUT_DIR, CheckFailed, Recorder, median

    module = __import__(WORKLOADS[args.workload])
    inputs = module.make_inputs(args.seed)
    rec = Recorder()
    import_s = 0.0 if args.trace else import_seconds()
    try:
        out = run_rounds(module, inputs, rec, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1
    for line in out["errors"]:
        print(f"FAILED: {line}", file=sys.stderr)

    if args.trace:
        metrics, native = per_layer(out, rec)
        rec.dump_spans(os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
        for layer, calls in native.items():
            print(f"  native {layer + '.calls_per_op':38s} {calls:14.6g} calls")
    else:
        metrics = end_to_end(out, import_s)
        for name in sorted(out["results"][0]["info"]):
            value = median([r["info"][name] for r in out["results"]])
            print(f"  info {name:40s} {value:14.6g} {INFO_UNITS[name]}")
    print(f"{args.workload} seed={args.seed} rounds={len(out['results'])} "
          f"trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
