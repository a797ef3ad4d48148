"""Self-tests of the benchmark (not part of the Tier-1 suite).

    python3 -m pytest -q perfbench/selftest.py

The forward-validity tests keep every generated spec inside the limits that
pending parameter checks will enforce (an on-bin carrier, at least ten
expected CCDF exceedances), so those checks can land without invalidating a
workload. The smoke tests run every workload at tiny size with the
correctness checks on, untraced and traced; tiny sizes come from patching
the workload module's constants. Further tests show that the checks reject
a PAPR that comes out too low and a receiver that guesses.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import paprsim  # noqa: E402
import run  # noqa: E402
from spans import load_stages, metric_units  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, BerSweep, PaprCcdf, SmallSpecs  # noqa: E402

SEEDS = (1, 2, 3)


def _ops(workload, seed):
    yield from workload.reference_ops(seed)
    yield from workload.run_ops(seed, round(60 / workload.step_seconds))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_specs_are_forward_valid(name):
    workload = WORKLOADS[name]
    for seed in SEEDS:
        for op in _ops(workload, seed):
            params = op.spec.params if op.spec else op.params
            carrier_bin = params.carrier_hz * params.n_subcarriers / params.bandwidth_hz
            assert carrier_bin == round(carrier_bin), (op.plan, carrier_bin)
            if op.kind == "papr":
                assert op.spec.n_symbols * op.spec.ccdf_read_point >= 10 - 1e-9, op.plan


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_cell_has_a_reference(name):
    reference = checks.load_reference()["cells"]
    workload = WORKLOADS[name]
    for op in _ops(workload, 7):
        for key, _ in op.cells():
            assert key.split("/")[1] == "loopback" or key in reference, key


def test_same_seed_same_inputs():
    for workload in WORKLOADS.values():
        first = workload.run_ops(11, 3)
        again = workload.run_ops(11, 3)
        other = workload.run_ops(12, 3)
        assert first == again
        assert first != other


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(metric_units(load_stages()))
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_count_check_tolerates_sampling_error_and_rejects_shifts():
    assert checks.counts_agree(10, 10_000, 40, 40_000)
    assert checks.counts_agree(3, 10_000, 40, 40_000)
    assert not checks.counts_agree(60, 10_000, 40, 40_000)
    assert checks.counts_agree(10_500, 200_000, 40_000, 800_000)
    assert not checks.counts_agree(12_000, 200_000, 40_000, 800_000)
    assert checks.counts_agree(0, 200_000, 0, 800_000)


def test_ber_check_rejects_a_guessing_receiver():
    ref = {"k": 100_000, "n": 200_000}
    assert checks.check_ber_cell(ref, 100_100, 200_000, 3)
    assert not checks.check_ber_cell({"k": 70_000, "n": 200_000}, 70_100, 200_000, 5)


def _no_exceedances(ref_points, n):
    """A CCDF curve of n symbols with no exceedance at any reference threshold."""
    thresholds = np.array([r["threshold_db"] for r in ref_points])
    return SimpleNamespace(thresholds_db=thresholds, prob_exceed=np.zeros(thresholds.size),
                           sample_count=n)


def test_papr_check_rejects_a_papr_that_is_too_low():
    """Zero exceedances at the reference thresholds (a PAPR far too low)
    fails both curves of every stored PAPR cell."""
    row = SimpleNamespace(papr_db_clipped_filtered=5.0, papr_db_unclipped=9.0)
    papr = {k: v for k, v in checks.load_reference()["cells"].items() if "/papr/" in k}
    assert papr
    for key, ref in papr.items():
        n = workloads.PAPR_SYMBOLS if key.startswith("ref/") else workloads.SMALL_PAPR_SYMBOLS
        curves = SimpleNamespace(clipped=_no_exceedances(ref["clipped"], n),
                                 unclipped=_no_exceedances(ref["unclipped"], n))
        problems = checks.check_papr_cell(ref, row, curves)
        for which in ("clipped", "unclipped"):
            assert any(p.startswith(f"{which}:") for p in problems), (key, which)


class _TinyBer(BerSweep):
    trace_steps = 1


class _TinySmall(SmallSpecs):
    trace_steps = 2


def _tiny(name, monkeypatch):
    if name == "papr_ccdf":
        monkeypatch.setattr(workloads, "SCHEMES", ("16qam",))
        return PaprCcdf()
    if name == "ber_sweep":
        monkeypatch.setattr(workloads, "SCHEMES", ("qpsk", "8qam"))
        monkeypatch.setattr(workloads, "BER_BITS", 20_000)
        return _TinyBer()
    return _TinySmall()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_tiny_workload(name, trace, monkeypatch):
    lines = []
    result = run.run_workload(_tiny(name, monkeypatch), seed=5, seconds=0.1, trace=trace,
                              out=lines.append)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], lines
    assert result["attempted"] >= 1
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] is not None


def test_an_envelope_that_misses_peaks_fails_the_papr_check(monkeypatch):
    """Reading the envelope at every fourth sample misses peaks, so the
    clipped PAPR comes out too low (by a few tenths of a dB); the check must
    reject the cell on both PAPR workloads."""
    reference = checks.load_reference()["cells"]
    monkeypatch.setattr(workloads, "SCHEMES", ("16qam",))
    ops = [SmallSpecs().ops(1, 1)[0], PaprCcdf().ops(1, 0)[0]]
    for op in ops:
        assert not any(c.problems for c in run.execute(op, reference).cells)
    envelope = paprsim.harness.envelope_magnitude
    monkeypatch.setattr(paprsim.harness, "envelope_magnitude",
                        lambda samples, params: envelope(samples, params)[:, ::4])
    for op in ops:
        cells = run.execute(op, reference).cells
        assert cells and all(any(p.startswith("clipped") for p in c.problems) for c in cells)


def test_refused_plan_and_raising_op_count_as_failed(monkeypatch):
    bad = (128, 5, 9.0, 41, 32, "qpsk")  # carrier beyond Nyquist: OfdmParams refuses it
    monkeypatch.setattr(workloads, "SMALL_PLANS", (bad,) + workloads.SMALL_PLANS[1:])
    (op,) = SmallSpecs().ops(1, 0)
    assert op.kind == "rejected" and "ConfigError" in op.error
    result = run.execute(op, {})
    assert [c.problems for c in result.cells] == [[op.error]]

    # A run that starts with the refused plan still measures set-up, on the
    # first experiment call it has, and counts the refusal as one failure.
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    reference = checks.load_reference()["cells"]
    _, cells, metrics, _ = run.end_to_end(SmallSpecs(), 1, 1.2, reference)
    assert metrics["setup_s"][0] > 0
    assert [c.key for c in cells if c.problems] == ["p00/rejected"]

    def refuse(spec, progress=None):
        raise paprsim.DesignError("no convergence")

    monkeypatch.setattr(paprsim, "run_papr_experiment", refuse)
    result = run.execute(SmallSpecs().ops(1, 1)[0], {})
    assert [c.problems for c in result.cells] == [["DesignError: no convergence"]]
