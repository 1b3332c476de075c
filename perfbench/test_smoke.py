"""Smoke test of the benchmark itself.

Runs every workload for a few units, untraced and traced, and checks that
each metric named in BENCHMARK.json is emitted with its unit.  It also plants
bad outputs and checks that the gates count them as failures.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_relphase()

import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run.benchmark(workload, seed=3, seconds=0.01, trace=trace, probes=1, min_units=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and np.isfinite(m["value"])


def _evolve_output(compare: bool) -> tuple[str, np.ndarray, int]:
    wl = workloads.Evolve(seed=5)
    unit = next(u for u in wl.cycle(1, extreme=True) if u[3] == compare)
    status, text, _ = wl.run(unit)
    assert status == 0
    return text, unit[1], unit[2]


def test_nan_token_in_evolve_json_is_a_failure():
    text, p0, samples = _evolve_output(compare=True)
    assert workloads.check_evolve_output(text, 0, p0, samples, compare=True)
    doc = json.loads(text)
    value = json.dumps(doc["rows"][-1]["p"][0])
    planted = text.replace(value, "NaN", 1)
    assert planted != text
    assert not workloads.check_evolve_output(planted, 0, p0, samples, compare=True)
    assert not workloads.check_evolve_output(text, 1, p0, samples, compare=True)


def test_extreme_evolve_unit_with_nan_output_counts_as_failure():
    wl = workloads.Evolve(seed=5)
    unit = next(u for u in wl.cycle(1, extreme=True) if wl.is_extreme(u))
    status, text, err = wl.run(unit)
    finite = workloads.check_evolve_output(text, status, unit[1], unit[2], compare=False)
    assert wl.check(unit, (status, text, err)) == (finite or (status == 2 and "error" in err))
    assert not wl.check(unit, RuntimeError("planted"))
    assert wl.extreme_runs == 2


class _PerturbedFlows(workloads.Flows):
    def run(self, unit):
        out = super().run(unit)
        if unit[0] == "field":
            return out * (1.0 + 1e-6)
        x, g, ga = out
        g = g.copy()
        g[0, 1] += 1e-6
        return x, g, g @ unit[4]


def test_perturbed_flow_matrix_is_a_failure():
    good = workloads.Flows(seed=7)
    unit = next(u for u in good.cycle(1) if u[0] == "rep")
    x, g, ga = good.run(unit)
    assert workloads.check_flow(x, g, unit[4], ga)
    g_bad = g.copy()
    g_bad[0, 1] += 1e-6
    assert not workloads.check_flow(x, g_bad, unit[4], g_bad @ unit[4])


def test_runner_counts_planted_failures():
    phase, _ = run.run_phase(_PerturbedFlows(seed=7), 1, 0.0, 0, extreme=False)
    assert phase.attempted == phase.units == 20
    assert phase.failed == phase.attempted
