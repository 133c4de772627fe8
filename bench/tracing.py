"""Per-layer spans for crwqed, recorded from outside the package.

``Tracer.install`` replaces each target function with a wrapper, in the
module that defines it and in every crwqed module that imported it by
name, so calls through either name are recorded.  A span's self time is
its duration minus the time covered by the spans it encloses.  Time the
tracer spends on its own bookkeeping (argument hashing, reading a written
CSV back) counts as enclosed, so it lands in no layer's self time; it
shows only in the traced-minus-untraced wall time.

Spans are aggregated in memory per process.  In a forked pool worker the
tracer starts empty and, after every task, writes its totals to
``<worker_dir>/worker-<pid>.json``; ``merge_worker_stats`` adds them to the
parent's.  A target that could not be wrapped, or worker totals that did
not all arrive, make the affected metrics missing (None), never 0.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# Stats accumulated by maximum instead of by sum.
_MAX_STATS = ("dim_max", "arg_max")


def _accumulate(into: dict, stat: str, value: float) -> None:
    old = into.get(stat, 0.0)
    into[stat] = max(old, value) if stat in _MAX_STATS else old + value


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.data)
    return h.hexdigest()


def _count_csv(args, result):
    path = args["path"]
    with open(path, "rb") as fh:
        data = fh.read()
    return {"bytes": len(data), "rows": data.count(b"\n") - 1}


def _count_bessel(args, result):
    xs = np.atleast_1d(np.asarray(args["xs"], dtype=float))
    order_max = int(args["order_max"])
    return {"entries": xs.size * (order_max + 1),
            "arg_max": float(xs.max()) if xs.size else 0.0,
            "key": _digest(np.array([order_max]), xs)}


def _count_eigh(args, result):
    h = args["ham"].matrix
    return {"dim_max": h.shape[0], "key": _digest(h)}


# (module, attribute, metric name, counter).  A counter receives the bound
# arguments and the return value and gives extra stats; "key" is an input
# fingerprint for unique_frac.  Dotted attributes are properties of a class.
TARGETS = (
    ("cli", "run_scenario", "cli.run_scenario", None),
    ("cli", "run_census", "cli.run_census", None),
    ("cli", "run_sweep", "cli.run_sweep", None),
    # the unit of work run_sweep hands to pool workers; marks task completion
    ("cli", "_sweep_one", "cli.sweep_task", None),
    ("cli", "write_csv", "cli.write_csv", _count_csv),
    ("model", "AtomTrajectory.pop_1", "model.AtomTrajectory.pop",
     lambda args, r: {"elements": r.size}),
    ("model", "AtomTrajectory.pop_2", "model.AtomTrajectory.pop",
     lambda args, r: {"elements": r.size}),
    ("specfun", "bessel_j_table", "specfun.bessel_j_table", _count_bessel),
    ("dynamics", "build_kernels", "dynamics.build_kernels", None),
    ("dynamics", "solve_volterra", "dynamics.solve_volterra",
     lambda args, r: {"nodes": r.alpha_1.size}),
    ("dynamics", "m_eigenvalues_trace", "dynamics.m_eigenvalues_trace", None),
    ("dynamics", "photon_field", "dynamics.photon_field",
     lambda args, r: {"snapshots": len(r)}),
    ("dynamics", "steady_state_prediction", "dynamics.steady_state_prediction", None),
    ("spectrum", "build_hamiltonian", "spectrum.build_hamiltonian", None),
    ("spectrum", "eigendecompose", "spectrum.eigendecompose", _count_eigh),
    ("spectrum", "classify_bound_states", "spectrum.classify_bound_states", None),
    ("spectrum", "exact_propagate", "spectrum.exact_propagate", None),
    ("bic", "find_bic_roots", "bic.find_bic_roots", None),
)


class Tracer:
    """Span recorder for one program process and its forked workers."""

    def __init__(self, worker_dir: str | None = None):
        self.worker_dir = worker_dir
        self.installed: set[str] = set()
        self._main_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.keys = defaultdict(set)
        self._stack: list[list[float]] = []  # enclosed seconds per open span

    # -- wrapping -------------------------------------------------------

    def install(self):
        """Wrap every target that exists; the rest stay uninstalled."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "crwqed" or name.startswith("crwqed.")}
        for mod_name, attr, metric, counter in TARGETS:
            module = mods.get(f"crwqed.{mod_name}")
            if module is None:
                continue
            if "." in attr:
                cls_name, prop_name = attr.split(".")
                cls = getattr(module, cls_name, None)
                prop = getattr(cls, "__dict__", {}).get(prop_name)
                if not isinstance(prop, property):
                    continue
                setattr(cls, prop_name, property(self._wrap(prop.fget, metric, counter, False),
                                                 doc=prop.__doc__))
            else:
                original = getattr(module, attr, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(original, metric, counter, True)
                for other in mods.values():
                    for name, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, name, wrapper)
            self.installed.add(metric)

    def _wrap(self, fn, metric, counter, bind):
        signature = inspect.signature(fn) if bind and counter is not None else None
        is_task = metric == "cli.sweep_task"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                stats = self.stats[metric]
                stats["calls"] += 1
                stats["self_s"] += (end - start) - frame[0]
            if counter is not None:
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    extra = counter(bound.arguments, result)
                else:
                    extra = counter(None, result)
                key = extra.pop("key", None)
                if key is not None:
                    self.keys[metric].add(key)
                for stat, value in extra.items():
                    _accumulate(stats, stat, value)
            if is_task and os.getpid() != self._main_pid and self.worker_dir:
                self._dump(os.path.join(self.worker_dir, f"worker-{os.getpid()}.json"))
            if self._stack:
                self._stack[-1][0] += time.perf_counter() - start
            return result

        return wrapper

    # -- results --------------------------------------------------------

    def _dump(self, path):
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)

    def snapshot(self) -> dict:
        """Totals of this process, in the form workers write them."""
        return {"installed": sorted(self.installed),
                "stats": {m: dict(s) for m, s in self.stats.items()},
                "keys": {m: sorted(k) for m, k in self.keys.items()}}


def read_worker_stats(worker_dir: str) -> list[dict]:
    """Totals every pool worker wrote, one dict per worker."""
    workers = []
    for path in sorted(glob.glob(os.path.join(worker_dir, "worker-*.json"))):
        with open(path, encoding="utf-8") as fh:
            workers.append(json.load(fh))
    return workers


def merge_worker_stats(trace: dict, workers: list[dict]) -> int:
    """Add the workers' totals to ``trace``; returns the number of sweep
    tasks recorded in all processes together."""
    for worker in workers:
        for metric, stats in worker["stats"].items():
            into = trace["stats"].setdefault(metric, {})
            for stat, value in stats.items():
                _accumulate(into, stat, value)
        for metric, keys in worker["keys"].items():
            trace["keys"][metric] = sorted(set(trace["keys"].get(metric, ())) | set(keys))
    return int(trace["stats"].get("cli.sweep_task", {}).get("calls", 0))


def layer_metrics(trace: dict, names, complete: bool) -> dict[str, float | None]:
    """Values of the ``<module>.<function>.<stat>`` metrics in ``names``.

    A function that was never called has zero counts, time, rates and
    ratios.  A function that was not wrapped, or any function when some
    worker totals did not arrive (``complete`` False), gives None.
    """
    installed = sorted(trace["installed"], key=len, reverse=True)
    out: dict[str, float | None] = {}
    for name in names:
        metric = next((m for m in installed if name.startswith(m + ".")), None)
        if metric is None or not complete:
            out[name] = None
            continue
        stat = name[len(metric) + 1:]
        stats = trace["stats"].get(metric, {})
        calls = stats.get("calls", 0.0)
        if stat == "nodes_per_s":
            self_s = stats.get("self_s", 0.0)
            out[name] = stats.get("nodes", 0.0) / self_s if self_s > 0 else 0.0
        elif stat == "unique_frac":
            out[name] = len(trace["keys"].get(metric, ())) / calls if calls else 0.0
        else:
            out[name] = stats.get(stat, 0.0)
    return out
