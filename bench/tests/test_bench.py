"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests -q

Run from the root of a source checkout.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference(run.REFERENCE)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(reference, workload):
    first = workloads.generate(workload, 7)
    again = workloads.generate(workload, 7)
    assert [(i.id, i.doc, i.refs) for i in first] == \
        [(i.id, i.doc, i.refs) for i in again]
    assert all(key in reference for item in first for key in item.refs)
    draws = {json.dumps([i.doc for i in workloads.generate(workload, s)])
             for s in range(1, 6)}
    assert len(draws) > 1


def _work(reference, keys):
    """n_omega of the spectral read-out and summed mb steps of some keys."""
    grids = [g for k in keys for g in reference[k]["grids"]]
    return ([g[1] for g in grids if g[0] == "spectral.readout"],
            sum(g[1] for g in grids if g[0].startswith("mb.")))


def test_options_of_a_slot_cost_the_same(reference):
    slots = {f"convert/{name}": [[key] for key, _ in options]
             for name, options in workloads.convert_slots().items()}
    slots.update({f"scan/{name}": [keys for _, keys in options]
                  for name, options in workloads.scan_slots().items()})
    for name, options in slots.items():
        work = [_work(reference, keys) for keys in options]
        assert len({str(bins) for bins, _ in work}) == 1, name
        steps = [s for _, s in work]
        assert max(steps) <= 1.04 * min(steps), name


def test_malformed_input_is_counted_not_fatal(monkeypatch, tmp_path):
    bad_value = workloads.Item(
        "bad-value", "scenario",
        workloads.scenario_doc(workloads.single_lambda(-5.0, 1.0), 0.2, 4.0,
                               None, ["analytic"]),
        ["none"])
    not_json = workloads.Item("not-json", "pump", {}, ["none"])

    def generate(workload, seed):
        return [bad_value, not_json]

    def write_inputs(items, work):
        workloads_write(items, work)
        (work / "inputs" / "not-json.json").write_text("{\"polarization\": ")

    workloads_write = workloads.write_inputs
    monkeypatch.setattr(workloads, "generate", generate)
    monkeypatch.setattr(workloads, "write_inputs", write_inputs)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.chdir(ROOT)
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = run.main(["--workload", "scan", "--seed", "1",
                         "--seconds", "0", "--trace", "0"])
    assert code == 0
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == 2 * run.MIN_PASSES
    assert result["failed"] == result["attempted"]
    assert "fail_frac 1" in stdout.getvalue()


def test_self_time_on_hand_built_tree():
    tree = [
        Span(0, None, "a", "cli", "main", 0.0, 10.0),
        Span(1, 0, "a", "runner", "x", 1.0, 3.0),
        Span(2, 0, "a", "runner", "y", 2.0, 4.0),    # overlaps x
        Span(3, 1, "a", "mb", "run", 1.5, 2.5),      # grandchild
        Span(4, 0, "a", "arrayio", "write", 9.0, 11.0),  # runs past parent
    ]
    got = spans.self_times(tree)
    assert got[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert got[1] == pytest.approx(2.0 - 1.0)
    assert got[2] == pytest.approx(2.0)
    assert got[3] == pytest.approx(1.0)
    assert got[4] == pytest.approx(2.0)


def test_end_to_end_uses_item_medians():
    def item_run(item, wall):
        return run.ItemRun(item, wall, wall / 2)

    passes = [run.Pass(False, [item_run("a", 1.0), item_run("b", 10.0)], 0),
              run.Pass(False, [item_run("a", 9.0), item_run("b", 12.0)], 0),
              run.Pass(False, [item_run("a", 2.0), item_run("b", 11.0)], 0),
              run.Pass(False, [item_run("a", 3.0)], 0)]   # a partial pass
    got = run.end_to_end(passes, 0.5)
    assert got["wall_s"] == pytest.approx(2.5 + 11.0)
    assert got["cpu_s"] == pytest.approx((2.5 + 11.0) / 2)
    assert got["item_max_s"] == pytest.approx(11.0)
    assert got["item_p50_s"] == pytest.approx(9.0)   # of all 7 invocations
    assert got["setup_s"] == 0.5


def test_gate_tolerances():
    ref = {"mb.xi_total": 0.5, "mb.fwhm": 2.0, "mb.peak_time": 10.0,
           "analytic.xi_total": 0.6, "cmp.analytic~mb.xi_total_delta_rel": -0.1}
    assert gate.compare(dict(ref), ref) == []
    near = dict(ref, **{"mb.xi_total": 0.5 * 1.004, "mb.peak_time": 10.03})
    assert gate.compare(near, ref) == []
    far = dict(ref, **{"mb.xi_total": 0.5 * 1.05, "analytic.xi_total": 0.6001})
    assert len(gate.compare(far, ref)) == 2
    assert gate.compare({}, ref)


def test_unit_names_fit_the_contract():
    names = list(run.END_TO_END) + list(spans.layer_metrics([]))
    for name in names:
        unit = run.unit_of(name)
        assert 0 < len(unit) <= 16 and unit.replace("/", "").isalnum()
