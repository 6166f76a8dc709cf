"""Command-line front end.

Subcommands:
  scenario <file>   run one conversion scenario (JSON config)
  figure <id>       emit one baked plot-data set (fig2 ... fig10)
  sweep <file>      run a parameter grid from a sweep config
  pump <file>       integrate one optical-pumping run

Flags: --out overrides the configured output directory, --engine picks
engines and --grid-check turns on doubling validation (scenario and sweep
only; both edit the document, a sweep's template, before it is checked,
so the manifest records them), --format csv|json selects the
scalar-report format (scenario and pump only).  Exit codes: 0 on
success, 2 for invalid configuration or arguments or a path that cannot
be read or written, 3 for a numerical failure (a stiff time grid,
aliasing, or an automatically sized grid over its budget); see
errors.exit_code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ENGINES, load_pump, load_scenario, load_sweep
from .errors import exit_code
from .figures import FIGURES, run_figure
from .runner import run_pump, run_scenario, run_sweep


def _add_common(parser, engines: bool, report: bool) -> None:
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (overrides the config)")
    if report:
        parser.add_argument("--format", choices=("csv", "json"),
                            default="json",
                            help="scalar-report format (default json)")
    if engines:
        parser.add_argument("--engine", action="append", choices=ENGINES,
                            default=None, metavar="NAME",
                            help="engine to run (repeatable; overrides the "
                                 "config)")
        parser.add_argument("--grid-check", action="store_true",
                            help="validate by doubling the grid")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eitconvert",
        description="memory-based optical-conversion runs, sweeps, and "
                    "pump-dynamics integrations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenario", help="run one scenario config")
    p.add_argument("file", help="scenario JSON file")
    _add_common(p, engines=True, report=True)
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("figure", help="emit one baked plot-data set")
    p.add_argument("id", metavar="{%s}" % ",".join(sorted(FIGURES)),
                   help="figure identifier")
    _add_common(p, engines=False, report=False)
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("sweep", help="run a parameter grid")
    p.add_argument("file", help="sweep JSON file")
    _add_common(p, engines=True, report=False)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("pump", help="integrate one optical-pumping run")
    p.add_argument("file", help="pump JSON file")
    _add_common(p, engines=False, report=True)
    p.set_defaults(func=_cmd_pump)
    return parser


def _flag_edits(args, prefix="") -> dict:
    """--engine and --grid-check as edits of the document at prefix."""
    edits = {prefix + "engines": args.engine} if args.engine else {}
    if args.grid_check:
        edits[prefix + "grid.grid_check"] = True
    return edits


def _cmd_scenario(args) -> int:
    config = load_scenario(args.file, _flag_edits(args))
    manifest = run_scenario(config, out_dir=args.out, fmt=args.format)
    for engine, summary in manifest["engines"].items():
        parts = [f"xi_total={summary['xi_total']:.6g}"]
        if "xi_relative" in summary:
            parts.append(f"xi_relative={summary['xi_relative']:.6g}")
        parts.append(f"converted_energy={summary['converted_energy']:.6g}")
        if summary.get("flags"):
            parts.append(f"flags: {summary['flags']}")
        print(f"{engine}: " + "  ".join(parts))
    for entry in manifest["comparison"]:
        a, b = entry["engines"]
        print(f"{a} vs {b}: waveform_rms={entry['waveform_rms']:.4g}  "
              + "  ".join(f"{k}={v:+.4g}" for k, v in sorted(entry.items())
                          if k.endswith("_delta_rel")))
    out = args.out if args.out is not None else config.out_dir
    print(f"wrote {len(manifest['files']) + 1} files to {out}")
    return 0


def _cmd_figure(args) -> int:
    out = args.out if args.out is not None else str(Path("figures") / args.id)
    result = run_figure(args.id, out, progress=print)
    print(f"wrote {len(result['files'])} curve files to {result['out_dir']}")
    return 0


def _cmd_sweep(args) -> int:
    spec = load_sweep(args.file, _flag_edits(args, "template."))
    manifest = run_sweep(spec, out_dir=args.out,
                         base_dir=Path(args.file).parent, progress=print)
    total = len(manifest["failures"]) + manifest["n_ok"]
    print(f"sweep: {manifest['n_ok']}/{total} points succeeded")
    for failure in manifest["failures"]:
        print(f"  failed {failure['assignments']}: {failure['error']}")
    if manifest["n_ok"] == 0 and manifest["failures"]:
        return manifest["failures"][0]["exit_code"]
    return 0


def _cmd_pump(args) -> int:
    spec = load_pump(args.file)
    result = run_pump(spec, out_dir=args.out, fmt=args.format)
    report = result["report"]
    print(f"final populations: " + "  ".join(
        f"m={m:+d}:{report[f'final_p_m{m:+d}']:.4f}" for m in range(-3, 4)))
    print(f"final excited fraction: "
          f"{report['final_excited_fraction']:.3e}")
    if "steady_m_expectation" in report:
        print(f"steady mean m: {report['steady_m_expectation']:.4f}")
    print(f"wrote {len(result['files'])} files to {result['out_dir']}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        code = exit_code(exc)
        kind = "numerical failure: " if code == 3 else ""
        print(f"error: {kind}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
