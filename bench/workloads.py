"""Seeded inputs for the three benchmark workloads.

A workload is a list of items; an item is one ``eitconvert`` CLI
invocation on a generated JSON file.  The seed picks every scenario,
sweep and pump parameter from fixed option lists, so each generated
input has its outputs recorded in ``reference.json``
(written by ``record_reference.py``).

Within one slot of a workload, every option makes the engines choose the
same grids: the same ``n_omega`` and, summed over the main and companion
``mb`` runs, step counts within 2% of each other (``reference.json``
records the grids; ``tests/test_bench.py`` checks this).  Different
seeds therefore run different physics (depths, pulse lengths, delays,
control ratios, populations, directions) at the same cost, and the
run-to-run spread of a metric measures the program, not the draw.

Why each workload (also in BENCHMARK.json):

* ``convert``: ``eitconvert scenario`` with all three engines, outputs
  persisted.  One single-lambda item at control ratio 0.3 keeps the
  131072-bin read-out grid (``n_omega`` grows as (Omega_w/Omega_r)^2),
  one at ratio 1.5 or 2 has its grid sized by the read span, and one
  cesium-d1 item (isotropic or pumped populations, either direction).
  ``spectral``, ``mb`` and CSV writes share the time.
* ``scan``: ``eitconvert sweep`` with ``analytic`` + ``mb``: two
  single-lambda sweeps over ``scheme.ccp2`` (the fig3 / criterion 2
  shape) and one cesium-d1 sweep over ``scheme.alpha_c``.  ``mb`` and its
  original-readout companion do nearly all the work, on shared n_z and M;
  ``spectral`` does none.  BENCHMARK.json does not list it: on a 2-core
  shared host three workloads leave too short a window per run for steady
  medians, and ``convert`` already times ``mb`` (and its traced run
  separates ``mb`` from ``spectral``).  Run it by hand as the mb-only
  control: ``--workload scan``.
* ``zeeman``: ``eitconvert pump`` (sigma+ and pi, steady state on)
  writes trajectories; ``eitconvert sweep`` over ``scheme.pump_time_us``
  then loads cesium-d1 populations from them for both directions with the
  ``analytic`` engine.  Pumping, scheme builds (Clebsch-Gordan sums) and
  trajectory reads do the work; ``mb`` and ``spectral`` do none.  The
  pump Rabi frequency is fixed (1.2, as in fig6) because the steady-state
  solve's cost depends on it; the seed picks the initial populations and
  the pump duration, which leave that cost within 2%.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("convert", "scan", "zeeman")
GAMMA_2PI_MHZ = 4.56
KAPPA = 1.35
ALL_ENGINES = ["analytic", "spectral", "mb"]
PUMPED = (0.03, 0.05, 0.08, 0.12, 0.17, 0.23, 0.32)
POPULATIONS = {"iso": (1.0 / 7.0,) * 7, "plus": PUMPED, "minus": PUMPED[::-1],
               "edges": (0.3, 0.1, 0.05, 0.1, 0.05, 0.1, 0.3)}
DIRECTIONS = ("sigma-->sigma+", "sigma+->sigma-")

# convert.  narrow: (T_p_us, eta, D_p, ccp2) at control ratio 0.3, all
# n_omega 131072 and 11000 mb steps; wide: (T_p_us, eta, D_p, ccp2, ratio),
# all n_omega 16384 and 6000 steps; cesium: (direction, populations,
# alpha, ratio, eta), all n_omega 8192 and 5600 steps.
NARROW = ((0.08, 3.0, 375.0, 0.5), (0.08, 3.5, 375.0, 0.5),
          (0.08, 4.0, 350.0, 0.5), (0.08, 4.5, 325.0, 0.5),
          (0.08, 4.5, 350.0, 0.5), (0.09, 3.5, 325.0, 0.5),
          (0.09, 4.0, 300.0, 0.5), (0.1, 3.0, 275.0, 0.5),
          (0.1, 3.5, 275.0, 0.5), (0.11, 3.0, 250.0, 0.5))
WIDE = ((0.15, 3.5, 150.0, 4.0, 1.5), (0.15, 4.5, 300.0, 2.0, 1.5),
        (0.2, 3.5, 150.0, 1.0, 2.0), (0.2, 3.5, 150.0, 3.0, 1.5),
        (0.2, 4.0, 150.0, 2.0, 2.0), (0.2, 4.0, 200.0, 2.0, 1.5),
        (0.2, 4.5, 150.0, 2.0, 2.0), (0.2, 4.5, 200.0, 2.0, 1.5),
        (0.25, 3.5, 100.0, 4.0, 2.0), (0.25, 4.0, 100.0, 1.0, 2.0),
        (0.25, 4.0, 100.0, 4.0, 2.0), (0.25, 4.5, 100.0, 2.0, 2.0))
CONVERT_CESIUM = (
    ("sigma+->sigma-", "iso", 200.0, 0.85, 3.5),
    ("sigma+->sigma-", "iso", 200.0, 1.4, 3.5),
    ("sigma+->sigma-", "iso", 250.0, 1.2, 3.5),
    ("sigma+->sigma-", "iso", 250.0, 1.2, 4.5),
    ("sigma+->sigma-", "plus", 100.0, 1.2, 3.5),
    ("sigma+->sigma-", "plus", 150.0, 0.85, 4.0),
    ("sigma-->sigma+", "iso", 200.0, 0.85, 3.5),
    ("sigma-->sigma+", "iso", 200.0, 1.4, 3.5),
    ("sigma-->sigma+", "iso", 250.0, 1.2, 3.5),
    ("sigma-->sigma+", "iso", 250.0, 1.2, 4.5),
    ("sigma-->sigma+", "minus", 100.0, 1.2, 3.5),
    ("sigma-->sigma+", "minus", 150.0, 0.85, 4.0))

# scan.  single: (T_p_us, eta, D_p, ccp2 values); cesium: (direction,
# populations, alpha_p, eta, alpha_c / alpha_p values).  Every sweep
# takes 10000 mb steps over its two points.
SCAN_SINGLE = (
    (0.15, 3.5, 150.0, (2.0, 4.0)), (0.15, 3.5, 200.0, (0.5, 3.0)),
    (0.15, 3.5, 300.0, (0.5, 1.0)), (0.15, 4.0, 150.0, (2.0, 4.0)),
    (0.15, 4.0, 250.0, (0.25, 0.5)), (0.15, 4.5, 150.0, (0.25, 4.0)),
    (0.15, 4.5, 200.0, (0.25, 2.0)), (0.15, 4.5, 300.0, (0.5, 1.0)),
    (0.2, 3.5, 150.0, (0.25, 2.0)), (0.2, 3.5, 200.0, (0.5, 1.0)),
    (0.2, 4.0, 150.0, (0.25, 2.0)), (0.2, 4.0, 200.0, (0.5, 1.0)),
    (0.2, 4.5, 150.0, (0.25, 0.5)), (0.25, 3.5, 100.0, (0.25, 2.0)),
    (0.25, 3.5, 150.0, (0.5, 1.0)), (0.25, 4.0, 150.0, (0.5, 1.0)))
SCAN_CESIUM = (
    ("sigma+->sigma-", "iso", 100.0, 3.5, (1.5, 2.0)),
    ("sigma+->sigma-", "iso", 100.0, 4.0, (1.5, 2.0)),
    ("sigma+->sigma-", "iso", 150.0, 4.0, (0.5, 1.5)),
    ("sigma+->sigma-", "iso", 200.0, 4.0, (0.5, 0.75)),
    ("sigma+->sigma-", "minus", 100.0, 4.0, (0.5, 0.75)),
    ("sigma+->sigma-", "plus", 100.0, 4.0, (1.0, 1.5)),
    ("sigma-->sigma+", "iso", 100.0, 3.5, (1.5, 2.0)),
    ("sigma-->sigma+", "iso", 100.0, 4.0, (1.5, 2.0)),
    ("sigma-->sigma+", "iso", 150.0, 4.0, (0.5, 1.5)),
    ("sigma-->sigma+", "iso", 200.0, 4.0, (0.5, 0.75)),
    ("sigma-->sigma+", "minus", 100.0, 3.5, (0.75, 1.5)),
    ("sigma-->sigma+", "minus", 100.0, 4.5, (1.5, 2.0)))

# zeeman
PUMP_POLARIZATIONS = ("sigma+", "pi")
PUMP_OMEGA = 1.2
PUMP_INITIAL = ("iso", "plus", "minus", "edges")
PUMP_DURATION_US = (1.6, 2.0)
PUMP_SAMPLES = 121
PUMP_TIME_POINTS = 41
ZEEMAN_ALPHA = (100.0, 500.0)


@dataclass
class Item:
    """One CLI invocation: ``eitconvert <command> <input> --out <dir>``.

    refs are the reference keys of its outputs: one for a scenario or a
    pump run, one per row for a sweep.
    """

    id: str
    command: str
    doc: dict
    refs: list


def _g(x: float) -> str:
    return f"{x:g}"


def scenario_doc(scheme: dict, T_p_us: float, eta: float, ratio, engines):
    protocol = {"eta": eta, "kappa": KAPPA}
    if ratio is not None:
        protocol["control_ratio"] = ratio
    return {"scheme": scheme,
            "units": {"gamma_2pi_MHz": GAMMA_2PI_MHZ, "T_p_us": T_p_us},
            "protocol": protocol, "engines": list(engines)}


def single_lambda(D_p: float, ccp2: float) -> dict:
    return {"kind": "single-lambda", "D_p": D_p, "ccp2": ccp2}


def cesium(direction: str, populations: str, alpha_p: float,
           alpha_c: float) -> dict:
    return {"kind": "cesium-d1", "direction": direction,
            "populations": list(POPULATIONS[populations]),
            "alpha_p": alpha_p, "alpha_c": alpha_c}


# ---------------------------------------------------------------- options

def convert_slots() -> dict:
    """slot -> list of (reference key, scenario document)."""
    narrow = [(f"convert/narrow/T{_g(T)}-eta{_g(eta)}-D{_g(D)}-ccp2{_g(c)}",
               scenario_doc(single_lambda(D, c), T, eta, 0.3, ALL_ENGINES))
              for T, eta, D, c in NARROW]
    wide = [(f"convert/wide/T{_g(T)}-eta{_g(eta)}-D{_g(D)}-ccp2{_g(c)}-r{_g(r)}",
             scenario_doc(single_lambda(D, c), T, eta, r, ALL_ENGINES))
            for T, eta, D, c, r in WIDE]
    cs = [(f"convert/cesium/{d}-{p}-a{_g(a)}-r{_g(r)}-eta{_g(eta)}",
           scenario_doc(cesium(d, p, a, a), 0.2, eta, r, ALL_ENGINES))
          for d, p, a, r, eta in CONVERT_CESIUM]
    return {"narrow": narrow, "wide": wide, "cesium": cs}


def scan_slots() -> dict:
    """slot -> list of (sweep document, reference key of each point)."""
    single, multi = [], []
    for T, eta, D, values in SCAN_SINGLE:
        key = f"scan/single/T{_g(T)}-eta{_g(eta)}-D{_g(D)}"
        single.append(_sweep(key, scenario_doc(single_lambda(D, 1.0), T, eta,
                                               None, ["analytic", "mb"]),
                             "scheme.ccp2", values))
    for d, p, a, eta, ratios in SCAN_CESIUM:
        key = f"scan/cesium/{d}-{p}-a{_g(a)}-eta{_g(eta)}"
        multi.append(_sweep(key, scenario_doc(cesium(d, p, a, a), 0.2, eta,
                                              1.0, ["analytic", "mb"]),
                            "scheme.alpha_c", [a * r for r in ratios]))
    return {"single": single, "cesium": multi}


def _sweep(key: str, template: dict, path: str, values) -> tuple:
    doc = {"template": template,
           "axes": [{"path": path, "values": list(values)}],
           "parallelism": 1}
    return doc, [f"{key}/{path}={_g(v)}" for v in values]


def pump_options() -> list:
    """(reference key, pump document)."""
    return [(f"zeeman/pump/{pol}-{init}-T{_g(dur)}",
             {"polarization": pol, "Omega_over_Gamma": PUMP_OMEGA,
              "duration_us": dur, "initial": list(POPULATIONS[init]),
              "n_samples": PUMP_SAMPLES, "steady_state": True})
            for pol in PUMP_POLARIZATIONS for init in PUMP_INITIAL
            for dur in PUMP_DURATION_US]


def pump_sweep(pump_key: str, trajectory: str, duration_us: float,
               direction: str, alpha: float) -> tuple:
    """Sweep over the pump time of one trajectory, and its point keys."""
    template = scenario_doc(
        {"kind": "cesium-d1", "direction": direction,
         "pump_trajectory": trajectory, "alpha_p": alpha, "alpha_c": alpha},
        0.2, 4.0, None, ["analytic"])
    doc = {"template": template,
           "axes": [{"path": "scheme.pump_time_us", "start": 0.0,
                     "stop": duration_us, "count": PUMP_TIME_POINTS}],
           "parallelism": 1}
    return doc, [f"{pump_key}/{direction}/a{_g(alpha)}/k{k}"
                 for k in range(PUMP_TIME_POINTS)]


# ------------------------------------------------------------- generators

def _convert(rng: random.Random) -> list:
    items = []
    for slot, options in convert_slots().items():
        key, doc = rng.choice(options)
        items.append(Item(slot, "scenario", doc, [key]))
    return items


def _scan(rng: random.Random) -> list:
    slots = scan_slots()
    chosen = rng.sample(slots["single"], 2) + [rng.choice(slots["cesium"])]
    return [Item(f"sweep{n}", "sweep", doc, keys)
            for n, (doc, keys) in enumerate(chosen)]


def _zeeman(rng: random.Random) -> list:
    pumps, sweeps = [], []
    for pol in PUMP_POLARIZATIONS:
        key, doc = rng.choice([p for p in pump_options()
                               if p[1]["polarization"] == pol])
        pump_id = "pump-pi" if pol == "pi" else "pump-sigma"
        pumps.append(Item(pump_id, "pump", doc, [key]))
        for n, direction in enumerate(DIRECTIONS):
            sweep, keys = pump_sweep(key, f"../out/{pump_id}/trajectory.csv",
                                     doc["duration_us"], direction,
                                     rng.choice(ZEEMAN_ALPHA))
            sweeps.append(Item(f"{pump_id}-sweep{n}", "sweep", sweep, keys))
    return pumps + sweeps


DRAW = {"convert": _convert, "scan": _scan, "zeeman": _zeeman}


def generate(workload: str, seed: int) -> list:
    """The workload's items for this seed (same seed, same items)."""
    return DRAW[workload](random.Random(f"{workload}/{seed}"))


def write_inputs(items, work: Path) -> None:
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for item in items:
        (inputs / f"{item.id}.json").write_text(
            json.dumps(item.doc, indent=1, sort_keys=True) + "\n")


def load_reference(path: Path) -> dict:
    return json.loads(path.read_text())["items"]
