"""Spans around slqt's public functions, recorded from outside the package.

``Tracer.install`` replaces each public function of the traced modules
by a timing wrapper at every module attribute that holds it, so callers
inside slqt (which look the function up in their own module's globals,
e.g. ``slqt.benchmarks.run_ensemble`` or ``slqt.cli.gather_moments``)
go through the wrapper. Spans are kept in memory with their parent and
written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

TRACED_MODULES = ("sim", "benchmarks", "regressors", "learner", "bpi",
                  "solvers", "model", "cli")


def _bound(fn, args, kwargs):
    b = inspect.signature(fn).bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


def _n_system(key):
    def count(fn, args, kwargs, result):
        return {"n": int(getattr(_bound(fn, args, kwargs)[key], "n"))}
    return count


def _run_ensemble(fn, args, kwargs, result):
    cfg = _bound(fn, args, kwargs)["config"]
    return {"path_steps": int(cfg.n_paths) * int(cfg.n_steps)}


def _average_cost(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"path_steps": int(a["n_paths"]) * int(round(a["horizon"] / a["h"]))}


def _tracking(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    steps = sum(int(round(seg[2] / a["h"])) for seg in a["schedule"])
    return {"path_steps": int(a["n_paths"]) * steps}


def _moments_exact(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    refine = int(a["refine"]) if a["method"] == "adaptive" else 1
    return {"grid_steps": int(a["config"].n_steps) * refine}


def _raw_moments(fn, args, kwargs, result):
    return {"grid_points": int(len(_bound(fn, args, kwargs)["source"].mean_x))}


def _shadow_rows(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    t_end = float(max(a["t_global"])) + float(a["window"])
    return {"grid_points": int(round(t_end / a["shadow"].h)) + 1}


def _learned(fn, args, kwargs, result):
    return {"iterations": int(result.total_iterations)}


def _solve_tracking(fn, args, kwargs, result):
    h = result.history
    return {"n": int(_bound(fn, args, kwargs)["problem"].system.n),
            "iterations": len(h["phase1"]) + len(h["phase2"])}


def _sylvester(fn, args, kwargs, result):
    return {"n": int(len(_bound(fn, args, kwargs)["A_c"]))}


def _json_bytes(fn, args, kwargs, result):
    return {"bytes": len(result)}


# Counts attached to a span, computed from the call's inputs (or, for
# iteration counts and sizes, from what it returned).
COUNTERS = {
    "sim.run_ensemble": _run_ensemble,
    "sim.estimate_average_cost": _average_cost,
    "sim.simulate_tracking": _tracking,
    "sim.propagate_moments_exact": _moments_exact,
    "regressors.accumulate_raw_moments": _raw_moments,
    "learner.shadow_regressors": _shadow_rows,
    "learner.learn_feedback": _learned,
    "learner.learn_shadow": _learned,
    "bpi.solve_tracking": _solve_tracking,
    "solvers.solve_gen_lyap": _n_system("sys"),
    "solvers.solve_sylvester": _sylvester,
    "model.lyap_matrix": _n_system("sys"),
    "model.spectral_abscissa": _n_system("sys"),
    "cli.canonical_json": _json_bytes,
}


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self, capture=()):
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []
        self.capture_names = set(capture)
        self.captured: dict = {}

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.update(counter(fn, args, kwargs, result))
            if name in self.capture_names:
                self.captured.setdefault(name, []).append(result)
            return result

        return wrapper

    def install(self, package: str = "slqt") -> list:
        """Wrap every public function of the traced modules; return names."""
        targets = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"{package}.{short}")
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[id(obj)] = (f"{short}.{attr}", obj)
        holders = [m for k, m in sys.modules.items()
                   if m is not None and (k == package or k.startswith(package + "."))]
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and targets[id(obj)][1] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, w)
        return sorted(name for name, _ in targets.values())

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    def self_times(self) -> list:
        """Spans with 's' (self time: duration minus the children's) set."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp["parent"] is not None:
                child[sp["parent"]] += sp["end"] - sp["start"]
        out = []
        for sp, c in zip(self.spans, child):
            rec = dict(sp)
            rec["total_s"] = sp["end"] - sp["start"]
            rec["s"] = rec["total_s"] - c
            out.append(rec)
        return out
