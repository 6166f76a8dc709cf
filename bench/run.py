"""Benchmark runner for eitconvert.

    python3 bench/run.py --workload convert --seed 1 --seconds 58 --trace 0

Run from the root of a source checkout.  The runner imports the package
from ``src/``, writes the seeded inputs of one workload (see
``workloads.py``) under ``.bench_work/`` and runs them through the public
CLI, ``eitconvert.cli.main``, in this process, pass after pass until
``--seconds`` would be exceeded (at least two passes), then fills the
rest of the window with the items that still fit.  Every item's outputs
go through the physics gate (``gate.py``), and its CSV bodies must be
byte-identical in every pass.

``--trace 0`` reports the end-to-end metrics.  The timings are medians
over all samples of the run, so a slow stretch of a shared host moves
single samples, not the result:

  setup_s      interpreter start to inputs generated, ``import eitconvert``
               included; median of SETUP_SAMPLES fresh interpreters
  wall_s       one pass over the workload's items (time inside the CLI):
               the sum of the item medians
  item_p50_s   median time of one CLI invocation, over all invocations
  item_max_s   time of the slowest CLI invocation: the largest item median
  cpu_s        user plus sys time of the process during one pass: the
               sum of the item medians
  peak_rss_mb  peak resident memory of the process

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``spans.py`` (medians over traced passes), the
tracing overhead (traced minus untraced ``wall_s``) and the gate's
failure share and grid changes.  Its spans are written to
``.bench_results/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import gate
import spans
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
MIN_PASSES = 2
MAX_PASSES = 50
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60

END_TO_END = {"setup_s": "s", "wall_s": "s", "item_p50_s": "s",
              "item_max_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class ItemRun:
    item: str
    wall: float
    cpu: float
    elapsed: float = 0.0
    error: str | None = None
    digest: str = ""
    grids: list = field(default_factory=list)


@dataclass
class Pass:
    traced: bool
    runs: list
    elapsed: float
    layers: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.runs)


def import_package(root: Path):
    """Import eitconvert from the checkout's src/, or exit with status 2."""
    src = root / "src"
    if not (src / "eitconvert" / "__init__.py").is_file():
        print(f"error: no eitconvert sources under {src}; run from the "
              f"root of a source checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    from eitconvert import cli
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: eitconvert was imported from {cli.__file__}, "
              f"not from {src}", file=sys.stderr)
        raise SystemExit(2)
    return cli


def invoke(item, work: Path, cli, tracer=None) -> ItemRun:
    """One timed CLI invocation; a nonzero exit or an exception is an error."""
    out = work / "out" / item.id
    shutil.rmtree(out, ignore_errors=True)
    argv = [item.command, str(work / "inputs" / f"{item.id}.json"),
            "--out", str(out)]
    first_span = 0
    if tracer is not None:
        tracer.item = item.id
        first_span = len(tracer.spans)
    log = io.StringIO()
    error = None
    gc.collect()  # every item starts from a collected heap, outside the timing
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = cli.main(argv)
        if code != 0:
            error = f"exit status {code}"
    except SystemExit as exc:
        error = f"exit status {exc.code}"
    except Exception as exc:  # an item that raises is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    run = ItemRun(item.id, time.perf_counter() - t0, time.process_time() - c0)
    if error is not None:
        run.error = "; ".join([error] + log.getvalue().strip().splitlines()[-3:])
    elif tracer is not None:
        run.grids = spans.item_grids(tracer.spans[first_span:])
    return run


def run_item(item, work: Path, reference: dict, cli, tracer=None) -> ItemRun:
    """Invoke one item, then gate its outputs (outside the timing)."""
    t0 = time.perf_counter()
    run = invoke(item, work, cli, tracer)
    if run.error is None:
        out = work / "out" / item.id
        problems = gate.check(item, out, reference)
        if problems:
            run.error = "gate: " + "; ".join(problems[:5])
        run.digest = gate.csv_digest(out)
    run.elapsed = time.perf_counter() - t0
    return run


def run_pass(items, work, reference, cli, tracer=None) -> Pass:
    t0 = time.perf_counter()
    if tracer is None:
        return Pass(False, [run_item(i, work, reference, cli) for i in items],
                    time.perf_counter() - t0)
    first_span, calls0, warns0 = tracer.mark()
    tracer.install()
    try:
        runs = [run_item(i, work, reference, cli, tracer) for i in items]
    finally:
        tracer.uninstall()
    elapsed = time.perf_counter() - t0
    _, calls1, warns1 = tracer.mark()
    layers = spans.layer_metrics(tracer.spans[first_span:], calls1 - calls0,
                                 warns1 - warns0)
    return Pass(True, runs, elapsed, layers)


def measure(items, work, reference, cli, seconds: float, tracer=None):
    """Whole passes until the next would overrun ``seconds`` (at least
    MIN_PASSES; with a tracer every second pass is traced).  Untraced,
    the rest of the window is then filled with the items that still fit,
    round after round, so that short items get more samples."""
    start = time.perf_counter()

    def left() -> float:
        return seconds - (time.perf_counter() - start)

    passes = []
    while len(passes) < MAX_PASSES:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(items, work, reference, cli,
                               tracer if traced else None))
        if (len(passes) >= MIN_PASSES
                and _median([p.elapsed for p in passes]) > left()):
            break
    if tracer is not None:
        return passes
    cost = item_medians(passes, "elapsed")
    while len(passes) < MAX_PASSES:
        t0 = time.perf_counter()
        runs = [run_item(i, work, reference, cli) for i in items
                if cost[i.id] < left()]
        if not runs:
            break
        passes.append(Pass(False, runs, time.perf_counter() - t0))
    return passes


def measure_setup(args, root: Path) -> float:
    """Median over fresh interpreters of start-to-inputs-generated time."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=root, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S, check=True)
        # perf_counter is CLOCK_MONOTONIC, shared by both processes
        samples.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(samples)


def check_bytes(passes) -> None:
    """Fail an item run whose CSV bodies differ from its first pass."""
    first = {r.item: r.digest for r in passes[0].runs}
    for p in passes[1:]:
        for r in p.runs:
            if r.error is None and first.get(r.item) and r.digest != first[r.item]:
                r.error = "CSV bodies differ from the first pass"


def check_grids(passes, items, reference) -> int:
    """Items whose chosen grids differ from the recorded ones."""
    traced = next((p for p in passes if p.traced), None)
    if traced is None:
        return 0
    want = {i.id: [g for k in i.refs for g in reference[k]["grids"]]
            for i in items}
    return sum(1 for r in traced.runs if r.error is None
               and r.grids != want[r.item])


def _median(values):
    return statistics.median(values) if values else 0.0


def item_medians(passes, attr: str) -> dict:
    """Item id -> median of one timing of that item over all passes."""
    samples = defaultdict(list)
    for p in passes:
        for r in p.runs:
            samples[r.item].append(getattr(r, attr))
    return {item: statistics.median(v) for item, v in samples.items()}


def end_to_end(passes, setup_s: float) -> dict:
    """Pass-level metrics from per-item medians over all passes, so that
    one slow stretch of the host moves one sample, not a whole pass."""
    walls = item_medians(passes, "wall")
    return {
        "setup_s": setup_s,
        "wall_s": sum(walls.values()),
        "item_p50_s": statistics.median(r.wall for p in passes for r in p.runs),
        "item_max_s": max(walls.values()),
        "cpu_s": sum(item_medians(passes, "cpu").values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(passes, items, reference, fail_frac: float) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    metrics = {name: _median([p.layers[name] for p in traced])
               for name in traced[0].layers}
    traced_wall = _median([p.wall for p in traced])
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - _median([p.wall for p in plain])
    metrics["gate.fail_frac"] = fail_frac
    metrics["gate.grid_changes"] = check_grids(passes, items, reference)
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name == "mb.us_per_step":
        return "us"
    if name == "arrayio.bytes_written":
        return "B"
    return "count"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=58.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="generate the inputs, print the monotonic "
                             "clock and exit (how setup_s is sampled)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    cli = import_package(root)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        items = workloads.generate(args.workload, args.seed)
        workloads.write_inputs(items, work)
        if args.setup_only:
            print(repr(time.perf_counter()), flush=True)
            return 0
        reference = workloads.load_reference(REFERENCE)
        setup_s = measure_setup(args, root)
        tracer = spans.Tracer() if args.trace else None
        passes = measure(items, work, reference, cli, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / ".bench_work").rmdir()

    check_bytes(passes)
    runs = [r for p in passes for r in p.runs]
    failed = [r for r in runs if r.error is not None]
    for r in failed:
        print(f"FAILED {r.item}: {r.error}", file=sys.stderr)
    fail_frac = len(failed) / len(runs)
    if args.trace:
        metrics = per_layer(passes, items, reference, fail_frac)
        results = root / ".bench_results"
        results.mkdir(exist_ok=True)
        tracer.dump(results / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(passes, setup_s)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f"  items {len(items)}  fail_frac {fail_frac:.4g}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit_of(name)}")
    if not args.trace:
        # zero on a healthy run, so it travels as failed/attempted in JSON
        print(f"  {'fail_frac':28s} {fail_frac:14.6g} fraction")
    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
