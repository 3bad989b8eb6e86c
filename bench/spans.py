"""Spans around the calls into rtstab's layers, recorded from outside the package.

A traced worker replaces each public function where rtstab.cli and
rtstab.dispersion (and the modules they call) look it up with a wrapper that
records a span: name, start, end and the span that was open when it was
called.  Spans stay in memory and are written out when the run ends.  The
worker runs rtstab single-threaded, so one stack of open spans is enough.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


def _lam(point):
    return {"lam": float(point.lam)}


def _points(summary):
    return {"points": len(summary.curve)}


def _steps(traj):
    return {"steps": len(traj.times) - 1}


# (module, attribute, span name, attributes taken from the return value)
TARGETS = (
    ("rtstab.cli", "load_config", "config.load_config", None),
    ("rtstab.cli", "solve_equilibrium", "equilibrium.solve_equilibrium", None),
    ("rtstab.dispersion", "assemble_forms", "variational.assemble_forms", None),
    ("rtstab.dispersion", "min_eig", "variational.min_eig", None),
    ("rtstab.dispersion", "growth_rate", "dispersion.growth_rate", _lam),
    ("rtstab.dispersion", "sweep_lattice", "dispersion.sweep_lattice", _points),
    ("rtstab.modes", "assemble_mode", "modes.assemble_mode", None),
    ("rtstab.evolve", "semidiscretize", "evolve.semidiscretize", None),
    ("rtstab.evolve", "advance", "evolve.advance", _steps),
    ("rtstab.evolve", "energy_balance_residual", "evolve.energy_balance_residual", None),
    ("rtstab.cli", "_write_json", "io.write_json", None),
    ("rtstab.dispersion", "write_dispersion_csv", "io.write_dispersion_csv", None),
    ("rtstab.evolve", "write_trajectory_csv", "io.write_trajectory_csv", None),
)
WRITERS = ("io.write_json", "io.write_dispersion_csv", "io.write_trajectory_csv")


class Tracer:
    """Collects spans from the functions it wraps."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, attrs_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._open[-1] if self._open else None,
                    "start": time.perf_counter(), "end": None, "attrs": {}}
            self.spans.append(span)
            self._open.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if attrs_of is not None:
                try:
                    span["attrs"] = attrs_of(result)
                except (AttributeError, TypeError):
                    pass  # a refactored return type: keep the timing, drop the count
            return result
        return traced

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target in place; return the ones that no longer exist."""
        missing = []
        for module_name, attr, name, attrs_of in targets:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, fn, attrs_of))
        return missing


def self_times(spans: list[dict]) -> dict[int, float]:
    """Duration of each span minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer times and counts from one traced run's spans."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s

    def outermost(name):
        return [s for s in spans if s["name"] == name
                and all(a["name"] != name for a in ancestors(s))]

    def total(name):
        return float(sum(s["end"] - s["start"] for s in outermost(name)))

    def self_total(name):
        return float(sum(selfs[s["id"]] for s in spans if s["name"] == name))

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in outermost(name))

    eigs = [s for s in spans if s["name"] == "variational.min_eig"]
    roots = {s["id"] for s in spans
             if s["name"] == "dispersion.growth_rate" and s["attrs"].get("lam", 0.0) > 0.0}
    eig_in_roots = sum(1 for s in eigs if any(a["id"] in roots for a in ancestors(s)))
    eig_s = total("variational.min_eig")
    return {
        "config.load_s": total("config.load_config"),
        "equilibrium.solve_s": total("equilibrium.solve_equilibrium"),
        "variational.assemble_s": total("variational.assemble_forms"),
        "variational.assemble_calls": len(outermost("variational.assemble_forms")),
        "variational.eig_s": eig_s,
        "variational.eig_calls": len(eigs),
        "variational.eig_ms_per_call": 1e3 * eig_s / len(eigs) if eigs else 0.0,
        "dispersion.root_s": total("dispersion.growth_rate"),
        "dispersion.root_self_s": self_total("dispersion.growth_rate"),
        "dispersion.roots": len(roots),
        "dispersion.eig_per_root": eig_in_roots / len(roots) if roots else 0.0,
        "dispersion.sweep_s": total("dispersion.sweep_lattice"),
        "dispersion.sweep_self_s": self_total("dispersion.sweep_lattice"),
        "dispersion.points": attr_sum("dispersion.sweep_lattice", "points"),
        "modes.assemble_s": total("modes.assemble_mode"),
        "evolve.operators_s": total("evolve.semidiscretize"),
        "evolve.advance_s": total("evolve.advance"),
        "evolve.steps": attr_sum("evolve.advance", "steps"),
        "evolve.energy_balance_s": total("evolve.energy_balance_residual"),
        "cli.write_s": sum(self_total(name) for name in WRITERS),
    }
