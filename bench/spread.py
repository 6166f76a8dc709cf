"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/spread.py --workload scan --seeds 1-10 [--trace 1]
                            [--seconds 25] [--stamp bench/baseline.json]

Run from the root of a source checkout.  For every metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, which is what the end-to-end bounds
in BENCHMARK.json are checked against.  ``--stamp`` merges the medians
into a baseline file together with the machine they were measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(results) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": results[0]["metrics"][name]["unit"],
                     "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / abs(median) if median else 0.0,
                     "n": len(values)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default=None)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--stamp", type=Path, default=None)
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or str(bench["run_seconds"])
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']}  "
              + "  ".join(f"{k}={v['value']:.4g}"
                          for k, v in result["metrics"].items()
                          if args.trace == "0"), flush=True)
    summary = summarise(results)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, s in summary.items():
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound:g}" + (
            "  OVER A THIRD" if s["spread"] > bound / 3 else "")
        print(f"{name:28s} median {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.4f}{flag}")
    if args.stamp is not None:
        stamp = (json.loads(args.stamp.read_text())
                 if args.stamp.exists() else {})
        stamp["machine"] = {"nproc": os.cpu_count(),
                            "python": platform.python_version(),
                            "numpy": np.__version__,
                            "machine": platform.machine()}
        stamp["run_seconds"] = int(float(seconds))
        section = "per_layer" if args.trace == "1" else "end_to_end"
        entry = stamp.setdefault("workloads", {}).setdefault(args.workload, {})
        entry[section] = {"seeds": args.seeds,
                          "failed": sum(r["failed"] for r in results),
                          "attempted": sum(r["attempted"] for r in results),
                          "metrics": summary}
        args.stamp.write_text(json.dumps(stamp, indent=1, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
