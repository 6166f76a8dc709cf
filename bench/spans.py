"""In-memory spans around eitconvert's layer boundaries, and the per-layer
metrics derived from them.

The program itself is not changed: ``Tracer.install`` replaces each
wrapped function at the name its caller looks it up under (for example
``runner.write_csv`` or ``config.read_csv``), so one layer's calls from
another layer are timed where they cross.  Spans carry the item id and
the id of the enclosing span; nothing is written until ``dump``.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("cli", "config", "atoms", "cg", "theory", "spectral", "mb",
          "pumping", "arrayio", "runner")


@dataclass
class Span:
    id: int
    parent: int | None
    item: str
    layer: str
    name: str
    start: float
    end: float = 0.0
    error: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children[span.id], key=lambda s: s.start):
            lo = max(child.start, cursor, span.start)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = span.duration - covered
    return out


def _exit_tail_steps(record) -> int:
    """Steps taken after the exit energy reached 1 - 1e-6 of its total."""
    e = record.energies
    ratio = e["converted"] / e["converted_scaled"] if e["converted_scaled"] else 0.0
    power = np.abs(record.probe_exit) ** 2 + ratio * np.abs(record.converted_exit) ** 2
    t = record.t_exit
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (power[1:] + power[:-1]) * np.diff(t))])
    if cum[-1] <= 0:
        return 0
    reached = int(np.argmax(cum >= (1.0 - 1e-6) * cum[-1]))
    return t.size - 1 - reached


def _mb_attrs(args, kwargs, record):
    d = record.diagnostics
    return {"n_t": int(d["n_t"]), "n_z": int(d["n_z"]),
            "M": int(args[0].p.size), "tail_steps": _exit_tail_steps(record)}


def _readout_attrs(args, kwargs, result):
    stored, grid = args[1], args[3]
    n_z = stored.z.size
    passes = n_z
    if kwargs.get("quadrature_check", True) and n_z >= 8:
        coarse = len(range(0, n_z, 2)) + (0 if (n_z - 1) % 2 == 0 else 1)
        passes += coarse
    power = np.abs(result.spectrum) ** 2
    active = int(np.count_nonzero(power > 1e-16 * power.max())) if power.size else 0
    return {"n_omega": int(grid.n_omega), "n_z": int(n_z),
            "kernel_elems": int(grid.n_omega) * passes * int(stored.sigma.shape[0]),
            "active_bins": active}


def _write_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _read_attrs(args, kwargs, result):
    header, cols = result
    return {"rows": int(len(cols[header[0]])) if header and header[0] in cols else 0}


class Tracer:
    """Wraps eitconvert's layer functions and keeps their spans in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.item = ""
        self.generator_calls = 0
        self.validity_warnings = 0
        self._patched = []
        self._warnings = None

    def _wrap(self, owner, name, layer, label=None, attrs=None):
        original = getattr(owner, name)
        tracer = self
        label = label or name

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1].id if tracer.stack else None
            span = Span(len(tracer.spans), parent, tracer.item, layer, label,
                        time.perf_counter())
            tracer.spans.append(span)
            tracer.stack.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def _count_generator(self, pumping):
        original = pumping.build_pump_generator
        tracer = self

        def build(config):
            generator = original(config)

            def counted(rho):
                tracer.generator_calls += 1
                return generator(rho)

            return counted

        pumping.build_pump_generator = build
        self._patched.append((pumping, "build_pump_generator", original))

    def install(self):
        from eitconvert import (atoms, cli, config, errors, mb, pumping,
                                runner)
        w = self._wrap
        w(cli, "main", "cli")
        for name in ("load_scenario", "load_sweep", "load_pump"):
            w(cli, name, "config", "load")
        w(config, "populations_from_trajectory", "config", "trajectory_read")
        for name in ("run_scenario", "run_sweep", "run_pump"):
            w(cli, name, "runner")
        w(runner, "run_scenario", "runner")
        w(runner, "run_engine", "runner")
        w(runner, "compare_outputs", "runner", "compare")
        for name in ("build_cesium_d1_scheme", "single_lambda_scheme"):
            w(config, name, "atoms", "scheme_build")
        w(atoms, "clebsch_gordan", "cg")
        w(pumping, "clebsch_gordan", "cg")
        for owner, names in ((config, ("control_for_eta", "write_channel")),
                             (runner, ("write_channel", "read_channel",
                                       "total_efficiency",
                                       "converted_spectrum")),
                             (mb, ("write_channel", "read_channel"))):
            for name in names:
                w(owner, name, "theory")
        w(runner, "stored_coherence_exact", "spectral", "store")
        w(runner, "converted_field_exact", "spectral", "readout",
          _readout_attrs)
        w(runner, "transmitted_probe", "spectral", "transmit")
        w(runner, "run_protocol", "mb", "run", _mb_attrs)
        w(runner, "run_original_readout", "mb", "companion", _mb_attrs)
        w(runner, "evolve_pumping", "pumping", "evolve")
        w(runner, "steady_state", "pumping", "steady")
        self._count_generator(pumping)
        w(runner, "write_csv", "arrayio", "write", _write_attrs)
        w(pumping, "write_csv", "arrayio", "write", _write_attrs)
        w(config, "read_csv", "arrayio", "read", _read_attrs)

        # ValidityWarnings are shown once per call site by default; count
        # every one while tracing instead of printing it.
        self._warnings = warnings.catch_warnings()
        self._warnings.__enter__()
        warnings.simplefilter("always", errors.ValidityWarning)
        shown = warnings.showwarning
        tracer = self

        def showwarning(message, category, *args, **kwargs):
            if issubclass(category, errors.ValidityWarning):
                tracer.validity_warnings += 1
            else:
                shown(message, category, *args, **kwargs)

        warnings.showwarning = showwarning

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        if self._warnings is not None:
            self._warnings.__exit__(None, None, None)
            self._warnings = None

    def mark(self):
        """Counter state, so a caller can take the metrics of one pass."""
        return len(self.spans), self.generator_calls, self.validity_warnings

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "item": s.item,
                    "layer": s.layer, "name": s.name, "start": s.start,
                    "end": s.end, "error": s.error, "attrs": s.attrs}) + "\n")


def layer_metrics(spans, generator_calls=0, validity_warnings=0) -> dict:
    """Per-layer metrics of one pass from its spans and counters.

    ``*_s`` metrics are inclusive span time (callee layers included),
    except ``*.self_s``; counts and derived ratios are exact.
    """
    selfs = self_times(spans)

    def total(layer, name=None):
        return sum(s.duration for s in spans
                   if s.layer == layer and (name is None or s.name == name))

    def count(layer, name=None):
        return sum(1 for s in spans
                   if s.layer == layer and (name is None or s.name == name))

    def attr(layer, key, names=None):
        return [s.attrs.get(key, 0) for s in spans if s.layer == layer
                and (names is None or s.name in names)]

    mb_runs = [s for s in spans if s.layer == "mb"]
    steps = sum(s.attrs.get("n_t", 0) for s in mb_runs)
    mb_s = total("mb")
    readouts = [s for s in spans if s.layer == "spectral" and s.name == "readout"]
    bins = sum(s.attrs.get("n_omega", 0) for s in readouts)
    # theory and cg spans do not nest inside their own layer, so summing
    # them counts no interval twice
    m = {
        "mb.run_s": total("mb", "run"),
        "mb.companion_s": total("mb", "companion"),
        "mb.runs": len(mb_runs),
        "mb.steps": steps,
        "mb.cell_steps": sum(s.attrs.get("n_t", 0) * s.attrs.get("n_z", 0)
                             * s.attrs.get("M", 0) for s in mb_runs),
        "mb.us_per_step": 1e6 * mb_s / steps if steps else 0.0,
        "mb.tail_frac": (sum(s.attrs.get("tail_steps", 0) for s in mb_runs)
                         / sum(max(s.attrs.get("n_t", 1) - 1, 1)
                               for s in mb_runs)) if mb_runs else 0.0,
        "spectral.store_s": total("spectral", "store"),
        "spectral.readout_s": total("spectral", "readout"),
        "spectral.transmit_s": total("spectral", "transmit"),
        "spectral.readout_calls": len(readouts),
        "spectral.n_omega_max": max((s.attrs.get("n_omega", 0)
                                     for s in readouts), default=0),
        "spectral.kernel_elems": sum(s.attrs.get("kernel_elems", 0)
                                     for s in readouts),
        "spectral.active_bin_frac": (sum(s.attrs.get("active_bins", 0)
                                         for s in readouts) / bins)
        if bins else 0.0,
        "pumping.evolve_s": total("pumping", "evolve"),
        "pumping.steady_s": total("pumping", "steady"),
        "pumping.generator_calls": generator_calls,
        "atoms.scheme_builds": count("atoms", "scheme_build"),
        "atoms.scheme_build_s": total("atoms", "scheme_build"),
        "cg.calls": count("cg"),
        "cg.s": total("cg"),
        "theory.calls": count("theory"),
        "theory.s": total("theory"),
        "theory.validity_warnings": validity_warnings,
        "arrayio.write_s": total("arrayio", "write"),
        "arrayio.bytes_written": sum(attr("arrayio", "bytes", ("write",))),
        "arrayio.read_s": total("arrayio", "read"),
        "arrayio.rows_read": sum(attr("arrayio", "rows", ("read",))),
        "config.load_s": total("config", "load"),
        "config.trajectory_reads": count("config", "trajectory_read"),
        "config.trajectory_read_s": total("config", "trajectory_read"),
        "runner.self_s": sum(selfs[s.id] for s in spans if s.layer == "runner"),
        "runner.compare_s": total("runner", "compare"),
        "cli.self_s": sum(selfs[s.id] for s in spans if s.layer == "cli"),
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = sum(1 for s in spans
                                   if s.layer == layer and s.error)
    return m


def item_grids(spans) -> list:
    """The grids one item's engines chose, in call order:
    [span, n_t or n_omega, n_z]."""
    return [[f"{s.layer}.{s.name}", s.attrs["n_omega" if s.layer == "spectral"
                                            else "n_t"], s.attrs["n_z"]]
            for s in spans
            if (s.layer, s.name) in (("mb", "run"), ("mb", "companion"),
                                     ("spectral", "readout"))]
