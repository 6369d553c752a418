"""Self-tests of the benchmark at toy size.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import SpanRecorder

CONTRACT = run.load_contract()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_workload_reports_every_metric(workload, trace):
    result = run.measure(workload, seed=11, seconds=0, trace=trace, toy=True)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_traced_split_separates_reception_models():
    result = run.measure("dense_sinr", seed=11, seconds=0, trace=True, toy=True)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    # The SINR arm seeds one shadowing stream per ordered pair.
    assert metrics["dessim.rng.streams.sinr"] > 3 * metrics["dessim.rng.streams.unitdisk"]
    assert metrics["dessim.rng.streams"] == (
        metrics["dessim.rng.streams.sinr"] + metrics["dessim.rng.streams.unitdisk"]
    )


def test_digest_gate_fires_on_perturbed_artifact(tmp_path):
    result = run.repetition("paper_grid", 5, True, False, tmp_path)
    store = tmp_path / "store"
    cells = result["cells"]
    assert run.failed_cells(result, result["artifacts"], cells) == []

    victim = store / cells[0]
    payload = bytearray(victim.read_bytes())
    payload[-2] ^= 1
    victim.write_bytes(bytes(payload))
    perturbed = dict(result, artifacts=workloads.store_artifacts({"": store}))
    assert run.failed_cells(perturbed, result["artifacts"], cells) == [cells[0]]

    victim.unlink()
    missing = dict(result, artifacts=workloads.store_artifacts({"": store}))
    assert run.failed_cells(missing, result["artifacts"], cells) == [cells[0]]
    assert run.failed_cells(None, result["artifacts"], cells) == cells


def test_pins_cover_every_workload():
    pins = json.loads((run.HERE / "pins.json").read_text())
    assert sorted(pins) == sorted(workloads.WORKLOADS)
    assert all(pins[name] for name in workloads.WORKLOADS)


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload=paper_grid", "--seed=1",
         "--seconds=1", "--trace=0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


class _Layer:
    def outer(self, value):
        return self.inner(value) + 1

    def inner(self, value):
        return value * 2


def test_spans_nest_and_self_times_partition(monkeypatch):
    recorder = SpanRecorder()
    for name in ("outer", "inner"):
        monkeypatch.setattr(_Layer, name, getattr(_Layer, name))
    recorder.wrap(_Layer, "outer", "layer.outer", tag=lambda *args: "t")
    recorder.wrap(_Layer, "inner", "layer.inner")
    assert _Layer().outer(3) == 7
    (outer, _, _, outer_parent, _), (inner, _, _, inner_parent, _) = recorder.spans
    assert (outer, outer_parent, inner, inner_parent) == ("layer.outer", -1, "layer.inner", 0)
    totals = recorder.totals()
    total_self = sum(self_s for _, _, self_s in totals.values())
    assert total_self == pytest.approx(totals["layer.outer"][1])
    assert recorder.ancestor_tag(1) == "t"
