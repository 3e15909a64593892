"""The benchmark's own tests: the layer map is complete, the printed metrics
match ``BENCHMARK.json``, and the checks catch planted faults.

Run from the repository root::

    python3 -m pytest simbench -q

Faults are planted by monkeypatching the simulator in the test process; no
file of the program changes.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import ckptchain  # noqa: E402
import figcell  # noqa: E402
import run  # noqa: E402
from core import CheckFailed, Recorder  # noqa: E402
from layers import BENCH, EXT, LAYERS, FileLayers, layer_of, layers_of, \
    repro_modules  # noqa: E402

SRC = os.path.join(ROOT, "src")


# ------------------------------------------------------------- layer map

def test_every_module_has_exactly_one_layer():
    modules = repro_modules(SRC)
    assert len(modules) > 90 and "repro.mana.wrappers" in modules
    unmapped = [m for m in modules if len(layers_of(m)) != 1]
    assert unmapped == [], (
        f"modules without exactly one layer: {unmapped}; "
        f"add them to simbench/layers.py")


def test_a_new_module_has_no_layer():
    assert layer_of("repro.newpkg") is None
    assert layer_of("repro.mana.newmodule") is None
    assert layer_of("repro.newtop") is None
    assert layer_of("repro.mana.wrappers") == "mana.wrappers"
    assert layer_of("repro.mana.protocol") == "mana"
    assert layer_of("repro.simtime.engine") == "simtime"


def test_files_resolve_to_layers():
    files = FileLayers(SRC, HERE)
    assert files("~") == EXT
    assert files(np.__file__) == EXT
    assert files(os.path.join(HERE, "figcell.py")) == BENCH
    assert files(os.path.join(SRC, "repro", "mana", "storage.py")) \
        == "mana.storage"
    assert files(os.path.join(SRC, "repro", "mpilib", "__init__.py")) \
        == "mpilib"


# ------------------------------------------------------ printed metrics

def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(capsys, monkeypatch, trace: int) -> dict:
    monkeypatch.setattr(figcell, "CELLS", (("ring", 12, 3),))
    code = run.main(["--workload", "fig-cell", "--seed", "3",
                     "--seconds", "0.01", "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_untraced_run_prints_every_end_to_end_metric(capsys, monkeypatch):
    result = _run(capsys, monkeypatch, 0)
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["correct"] is True and result["failed"] == 0
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric(capsys, monkeypatch):
    result = _run(capsys, monkeypatch, 1)
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for layer in LAYERS:
        assert f"{layer}.calls_per_op" in result["metrics"]
        assert f"{layer}.self_us_per_op" in result["metrics"]
    assert result["metrics"]["mana.wrappers.calls_per_op"]["value"] > 0


# --------------------------------------------------------- planted faults

def _one_chain(monkeypatch):
    """Shrink ckpt-chain to one short HPCG chain with two cuts."""
    monkeypatch.setattr(ckptchain, "CHAINS", (("hpcg", "hpcg", 6, 4, False),))
    monkeypatch.setattr(ckptchain, "CUTS", 2)
    return ckptchain.make_inputs(7)


def test_clean_chain_passes(monkeypatch):
    inputs = _one_chain(monkeypatch)
    res = ckptchain.run_round(inputs, Recorder())
    assert res["attempted"] == 2 and res["failed"] == 0


def test_restart_state_off_by_one_ulp_is_caught(monkeypatch):
    import repro.mana as mana

    inputs = _one_chain(monkeypatch)
    real_restart = mana.restart

    def perturbed_restart(*args, **kwargs):
        job = real_restart(*args, **kwargs)

        def nudge(_value):
            z = job.states[0]["z"]
            z[0] = np.nextafter(z[0], np.inf)

        job.resumed.on_done(nudge)
        return job

    monkeypatch.setattr(mana, "restart", perturbed_restart)
    with pytest.raises(CheckFailed, match="final state differs"):
        ckptchain.run_round(inputs, Recorder())


def test_loaded_image_that_differs_from_the_saved_one_is_caught(monkeypatch):
    import dataclasses

    import repro.mana as mana

    inputs = _one_chain(monkeypatch)
    real_load = mana.load_checkpoint

    def tampered_load(directory):
        ckpt = real_load(directory)
        img = ckpt.images[-1]
        ckpt.images[-1] = dataclasses.replace(img, taken_at=img.taken_at + 1e-9)
        return ckpt

    monkeypatch.setattr(mana, "load_checkpoint", tampered_load)
    with pytest.raises(CheckFailed, match="loaded images differ"):
        ckptchain.run_round(inputs, Recorder())


def test_dropped_message_fails_the_cell(monkeypatch):
    from repro.mana.wrappers import ManaApi
    from repro.simtime import Completion

    real_send = ManaApi.send
    sends = [0]

    def lossy_send(self, dest, data, *args, **kwargs):
        sends[0] += 1
        if sends[0] == 50:               # dropped on the wire
            done = Completion(self.rt.engine)
            done.resolve(None)
            return done
        return real_send(self, dest, data, *args, **kwargs)

    monkeypatch.setattr(ManaApi, "send", lossy_send)
    totals = figcell.new_totals()
    figcell.run_cell("ring", 12, 3, figcell.make_inputs(3), Recorder(), totals)
    assert totals["failed"] == totals["ops"] > 0
    assert "did not finish" in totals["errors"][0]


def test_allreduce_in_another_order_is_caught(monkeypatch):
    from repro.mpilib.ops import ReduceOp

    real = ReduceOp.reduce_all

    def reversed_fold(self, contributions):
        return real(self, list(reversed(contributions)))

    monkeypatch.setattr(ReduceOp, "reduce_all", reversed_fold)
    totals = figcell.new_totals()
    with pytest.raises(CheckFailed, match="differs from numpy"):
        figcell.run_cell("ring", 12, 3, figcell.make_inputs(3), Recorder(),
                         totals)


def test_ring_inputs_follow_the_seed_and_reference_steps():
    x0 = figcell.ring_inputs(11, 5)
    assert np.array_equal(x0, figcell.ring_inputs(11, 5))
    assert not np.array_equal(x0, figcell.ring_inputs(12, 5))
    out = figcell.ring_reference(x0, steps=1)
    want = 0.5 * x0 + 0.5 * np.roll(x0, 1, axis=0)
    want = want + 1e-3 * want.sum(axis=0)
    assert np.allclose(out, want, rtol=0, atol=1e-15)
