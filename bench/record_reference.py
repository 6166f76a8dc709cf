"""Write bench/reference.json: outputs, grids and cost of every lattice point.

    python3 bench/record_reference.py

Run from the root of a source checkout, once, at the commit whose
physics is the reference (the file records which).  Every scenario,
sweep point and pump run that ``workloads.py`` can generate is run
through the CLI with tracing on; the gate compares later outputs with
what is recorded here, and the recorded grids show that every option of
a workload slot costs the same.
A later commit that changes the physics on purpose must justify new
tolerances in ``gate.py``, not re-record this file.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import gate
import run
import spans
import workloads
from workloads import Item


def _round(value: float) -> float:
    return float(f"{value:.10g}")


def _commit(root: Path) -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _invoke(item, work: Path, cli, tracer):
    """Run one item traced; returns (outputs, spans of the item)."""
    workloads.write_inputs([item], work)
    first = len(tracer.spans)
    tracer.install()
    try:
        result = run.invoke(item, work, cli, tracer)
    finally:
        tracer.uninstall()
    if result.error is not None:
        raise RuntimeError(f"{item.id}: {result.error}")
    return gate.outputs(item, work / "out" / item.id), tracer.spans[first:]


def _points(item_spans):
    """The spans inside each sweep point, point by point."""
    points = [s for s in item_spans
              if s.layer == "runner" and s.name == "run_scenario"]
    return [[s for s in item_spans if s.start >= p.start and s.end <= p.end]
            for p in points]


def record_scenario(entries, key, doc, work, cli, tracer):
    item = Item("rec", "scenario", doc, [key])
    (found,), item_spans = _invoke(item, work, cli, tracer)
    entries[key] = {"outputs": found, "grids": spans.item_grids(item_spans)}


def record_sweep(entries, doc, keys, work, cli, tracer):
    item = Item("rec", "sweep", doc, keys)
    rows, item_spans = _invoke(item, work, cli, tracer)
    points = _points(item_spans)
    if len(rows) != len(keys) or len(points) != len(keys):
        raise RuntimeError(f"{keys[0]}: {len(rows)} rows, {len(points)} points")
    for key, found, inner in zip(keys, rows, points):
        entries[key] = {"outputs": found, "grids": spans.item_grids(inner)}


def main() -> int:
    root = Path.cwd()
    cli = run.import_package(root)
    work = root / ".bench_work" / f"record-{os.getpid()}"
    tracer = spans.Tracer()
    entries = {}
    try:
        for options in workloads.convert_slots().values():
            for key, doc in options:
                record_scenario(entries, key, doc, work, cli, tracer)
                print(key, flush=True)
        for options in workloads.scan_slots().values():
            for doc, keys in options:
                record_sweep(entries, doc, keys, work, cli, tracer)
                print(keys[0], flush=True)
        for key, doc in workloads.pump_options():
            pump = Item("pump", "pump", doc, [key])
            (found,), _ = _invoke(pump, work, cli, tracer)
            entries[key] = {"outputs": found, "grids": []}
            for direction in workloads.DIRECTIONS:
                for alpha in workloads.ZEEMAN_ALPHA:
                    record_sweep(entries, *workloads.pump_sweep(
                        key, "../out/pump/trajectory.csv", doc["duration_us"],
                        direction, alpha), work, cli, tracer)
            print(key, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for entry in entries.values():
        entry["outputs"] = {k: _round(v) for k, v in entry["outputs"].items()}
    head = {"commit": _commit(root),
            "machine": {"nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        "numpy": np.__version__,
                        "machine": platform.machine()}}
    # one entry per line keeps the file diffable
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in sorted(entries.items())]
    run.REFERENCE.write_text(json.dumps(head, sort_keys=True)[:-1]
                             + ', "items": {\n' + ",\n".join(lines)
                             + "\n}}\n")
    print(f"wrote {len(entries)} entries to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
