"""Physics-output gate: compare an item's outputs with the recorded ones.

Outputs are read back from the files the CLI wrote, flattened to
``name -> float`` and compared key by key with ``reference.json``.
Tolerances (absolute, derived from the reference value):

* ``analytic.*``: 1e-6 relative.  The closed forms only move if their
  inputs do (a pump trajectory recomputed by another integrator).
* ``spectral.*`` and ``mb.*``: 1e-2 relative on energies and
  efficiencies, 2e-2 relative on ``fwhm``; ``peak_time`` to 2e-2 of the
  engine's ``fwhm``.  This admits re-gridding and a different time
  integrator, and catches a broken propagation.
* ``cmp.*`` (the cross-engine deltas of comparison.json): a relative
  delta (b - a) / a may move by (1 + |delta|) times the sum of the two
  engines' tolerances, ``peak_time_delta`` by the sum of their
  ``peak_time`` tolerances, ``waveform_rms`` by 2e-2.
* pump reports: final populations 1e-6, steady-state populations 1e-5
  absolute (an exact null-space solve differs from the iterated one by
  about 4e-7), and 12 times that for the mean m.

The grids the engines chose are recorded too, but a grid change is
reported, not failed: re-gridding is a planned optimisation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

GATED = ("xi_total", "xi_relative", "peak_time", "fwhm", "converted_energy")
MODEL_REL = 1e-6
SOLVER_REL = 1e-2
SHAPE_REL = 2e-2
DELTA_ABS = 2e-2
FINAL_POP_ABS = 1e-6
STEADY_POP_ABS = 1e-5


class GateError(Exception):
    """An item's output files are missing or do not parse."""


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise GateError(f"{path.name}: {exc}") from exc


def scenario_outputs(out: Path, engines) -> dict:
    flat = {}
    for engine in engines:
        summary = _read_json(out / f"efficiency_{engine}.json")
        for key in GATED:
            if key in summary:
                flat[f"{engine}.{key}"] = float(summary[key])
    if len(engines) > 1:
        for entry in _read_json(out / "comparison.json"):
            a, b = entry["engines"]
            for key, value in entry.items():
                if key != "engines":
                    flat[f"cmp.{a}~{b}.{key}"] = float(value)
    return flat


def sweep_outputs(out: Path) -> list:
    manifest = _read_json(out / "manifest.json")
    if manifest.get("failures"):
        raise GateError(f"sweep points failed: {manifest['failures']}")
    try:
        with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise GateError(f"sweep.csv: {exc}") from exc
    header = rows[0]
    keep = [(i, name) for i, name in enumerate(header)
            if name.partition(".")[2] in GATED]
    return [{name: float(row[i]) for i, name in keep} for row in rows[1:]]


def pump_outputs(out: Path) -> dict:
    report = _read_json(out / "pump_report.json")
    return {k: float(v) for k, v in report.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)}


def outputs(item, out: Path) -> list:
    """One flat output dict per reference key of the item."""
    if item.command == "scenario":
        return [scenario_outputs(out, item.doc["engines"])]
    if item.command == "sweep":
        return sweep_outputs(out)
    return [pump_outputs(out)]


def _engine_rel(engine: str, name: str) -> float:
    """Relative tolerance of one engine's scalar output."""
    if engine == "analytic":
        return MODEL_REL
    return SHAPE_REL if name == "fwhm" else SOLVER_REL


def allowed(key: str, ref: dict) -> float:
    """Absolute tolerance of one output, from the reference values."""
    value = ref[key]
    head, _, name = key.rpartition(".")
    if head.startswith("cmp."):
        a, b = head[4:].split("~")
        if name == "peak_time_delta":
            return SHAPE_REL * (abs(ref.get(f"{a}.fwhm", 0.0))
                                + abs(ref.get(f"{b}.fwhm", 0.0)))
        if name.endswith("_delta_rel"):
            # (b - a) / a moves by (1 + delta) times the two relative errors
            base = name[:-len("_delta_rel")]
            return (1.0 + abs(value)) * (_engine_rel(a, base)
                                         + _engine_rel(b, base))
        return DELTA_ABS
    if head in ("analytic", "spectral", "mb"):
        if name == "peak_time":
            return (_engine_rel(head, "fwhm") * abs(ref.get(f"{head}.fwhm", 0.0))
                    + 1e-12)
        return _engine_rel(head, name) * abs(value) + 1e-12
    tol = STEADY_POP_ABS if key.startswith("steady_") else FINAL_POP_ABS
    # a mean over m = -3..3 sums seven population errors weighted by |m|
    return 12.0 * tol if key.endswith("m_expectation") else tol


def compare(got: dict, ref: dict) -> list:
    """Problems found comparing one output dict with its reference."""
    problems = []
    for key in sorted(ref):
        want = ref[key]
        if key not in got:
            problems.append(f"{key} missing")
            continue
        have = got[key]
        if math.isnan(want) and math.isnan(have):
            continue
        if not abs(have - want) <= allowed(key, ref):
            problems.append(f"{key}={have!r}, reference {want!r}")
    return problems


def check(item, out: Path, reference: dict) -> list:
    """Every gate problem of one finished item (empty when it passes)."""
    try:
        found = outputs(item, out)
    except (GateError, KeyError, ValueError, IndexError) as exc:
        return [f"outputs unreadable: {exc}"]
    if len(found) != len(item.refs):
        return [f"{len(found)} outputs for {len(item.refs)} reference keys"]
    problems = []
    for key, got in zip(item.refs, found):
        problems += [f"{key}: {p}" for p in
                     compare(got, reference[key]["outputs"])]
    return problems


def csv_digest(out: Path) -> str:
    """sha256 over the names and bytes of every CSV the item wrote."""
    h = hashlib.sha256()
    for path in sorted(out.rglob("*.csv")):
        h.update(path.name.encode() + b"\0")
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()
