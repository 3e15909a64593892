"""The simulator's layers, and per-layer attribution of profiler statistics.

A layer is a package under ``src/repro``; ``repro.mana`` is split by module
because its modules carry different costs (the per-message wrappers versus
the checkpoint path).  Everything outside ``repro`` -- the standard library,
numpy, builtins, pickle -- is the ``ext`` layer, and the benchmark's own
files are the ``bench`` layer.

:func:`layer_of` maps a dotted module name to exactly one layer, or to
``None`` when no rule covers it; the benchmark's self-test walks every
module under ``src/repro`` so a new module cannot escape the profile.
"""

from __future__ import annotations

import os
from typing import Optional

#: layer -> the modules it owns: a name covers that module and, for a
#: package, every module below it.  The ``mana`` rows are exact modules, so a
#: new module in ``repro.mana`` has no layer until it is given one here.
LAYER_MODULES: dict[str, tuple[str, ...]] = {
    "repro": ("repro", "repro.__main__", "repro.cli"),
    "apps": ("repro.apps",),
    "conformance": ("repro.conformance",),
    "facility": ("repro.facility",),
    "faults": ("repro.faults",),
    "hardware": ("repro.hardware",),
    "harness": ("repro.harness",),
    "memory": ("repro.memory",),
    "modelcheck": ("repro.modelcheck",),
    "mpilib": ("repro.mpilib",),
    "mprog": ("repro.mprog",),
    "net": ("repro.net",),
    "obs": ("repro.obs",),
    "runtime": ("repro.runtime",),
    "simtime": ("repro.simtime",),
    "mana.wrappers": ("repro.mana.wrappers",),
    "mana.virtualize": ("repro.mana.virtualize",),
    "mana.split_process": ("repro.mana.split_process",),
    "mana.coordinator": ("repro.mana.coordinator",),
    "mana.protocol_engine": ("repro.mana.protocol_engine",),
    "mana.rank_runtime": ("repro.mana.rank_runtime",),
    "mana.checkpoint_image": ("repro.mana.checkpoint_image",),
    "mana.storage": ("repro.mana.storage",),
    "mana.record_replay": ("repro.mana.record_replay",),
    "mana.log_compaction": ("repro.mana.log_compaction",),
    "mana.job": ("repro.mana.job",),
    "mana": ("repro.mana", "repro.mana.autockpt", "repro.mana.protocol"),
}

#: layers outside ``repro``
EXT = "ext"
BENCH = "bench"

LAYERS: tuple[str, ...] = tuple(LAYER_MODULES) + (EXT, BENCH)

#: packages whose rows name exact modules only (no prefix matching below)
_EXACT_ONLY = ("repro", "repro.mana")


def _covers(owner: str, module: str) -> bool:
    if module == owner:
        return True
    return owner not in _EXACT_ONLY and module.startswith(owner + ".")


def layers_of(module: str) -> list[str]:
    """Every layer whose rule covers ``module`` (a well-formed map gives one)."""
    return [layer for layer, owners in LAYER_MODULES.items()
            if any(_covers(o, module) for o in owners)]


def layer_of(module: str) -> Optional[str]:
    """The layer of a ``repro`` module, or ``None`` if no rule covers it."""
    found = layers_of(module)
    return found[0] if len(found) == 1 else None


def repro_modules(src_dir: str) -> list[str]:
    """Dotted names of every module under ``<src_dir>/repro``."""
    out = []
    root = os.path.join(src_dir, "repro")
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), src_dir)
            mod = rel[:-3].replace(os.sep, ".")
            if mod.endswith(".__init__"):
                mod = mod[: -len(".__init__")]
            out.append(mod)
    return sorted(out)


class FileLayers:
    """Resolves a profiler's code filename to its layer, with a cache."""

    def __init__(self, src_dir: str, bench_dir: str) -> None:
        self._src = os.path.join(os.path.abspath(src_dir), "")
        self._bench = os.path.join(os.path.abspath(bench_dir), "")
        self._cache: dict[str, str] = {}

    def __call__(self, filename: str) -> str:
        layer = self._cache.get(filename)
        if layer is None:
            layer = self._cache[filename] = self._resolve(filename)
        return layer

    def _resolve(self, filename: str) -> str:
        path = os.path.abspath(filename) if filename[:1] not in ("~", "<") \
            else filename
        if path.startswith(self._bench):
            return BENCH
        if not path.startswith(self._src) or not path.endswith(".py"):
            return EXT
        mod = path[len(self._src):-3].replace(os.sep, ".")
        if mod.endswith(".__init__"):
            mod = mod[: -len(".__init__")]
        layer = layer_of(mod)
        if layer is None:
            raise KeyError(f"module {mod} has no layer in simbench/layers.py")
        return layer


def attribute(stats: dict, file_layer: FileLayers) -> dict[str, list[float]]:
    """Fold ``pstats``-style raw stats into ``{layer: [calls, self_s]}``.

    ``stats`` maps ``(filename, lineno, funcname)`` to ``(cc, nc, tt, ct,
    callers)``; ``nc`` counts every call (recursive ones included) and
    ``tt`` is the function's own time.
    """
    out = {layer: [0, 0.0] for layer in LAYERS}
    for (filename, _line, _func), (_cc, nc, tt, _ct, _callers) in stats.items():
        acc = out[file_layer(filename)]
        acc[0] += nc
        acc[1] += tt
    return out
