"""The arrays that the units of one experiment call share.

An experiment call allocates its per-thread chunk buffers once, and a BER
experiment its unit arrays (received symbols, normals, block powers) once,
at its largest unit; every unit then works in views of them. A unit must
see nothing another unit left there: each unit of an experiment must give
what it gives run on its own, on fresh arrays.
"""
import dataclasses

import numpy as np
import pytest

from paprsim import ExperimentSpec, ModScheme, run_ber_experiment, run_papr_experiment
from paprsim import harness
from paprsim.constellation import SCHEME_NAMES
from paprsim.harness import experiment_hpf

from oracles import ORACLE_PLANS
from units import papr_unit, spy_chunk_buffers, unit_cells

SCHEMES = tuple(ModScheme.from_name(name) for name in SCHEME_NAMES)
EBN0_DB = (2.0, 8.0)


def ber_spec(schemes):
    # 2*10^4 bits make units of 79 (QPSK, 4-QAM) down to 32 (32-ary)
    # frames on the reference plan.
    return ExperimentSpec(params=ORACLE_PLANS["reference"][0], schemes=schemes,
                          cr_values=(1.2,), ebn0_grid_db=EBN0_DB, bits_per_point=20_000, seed=41)


@pytest.mark.parametrize("order", ["largest_first", "smallest_first"])
@pytest.mark.parametrize("workers", [1, 2])
def test_each_ber_unit_equals_the_unit_on_its_own(monkeypatch, workers, order):
    # A budget of 24 blocks puts the 8-ary and 4-point units (53 and 79
    # frames) on two threads in chunks of 12 frames, and the 16- and
    # 32-ary units (40 and 32 frames) on one thread in chunks of 24, so
    # the first thread's buffers are sized by one unit and the second's
    # by another.
    spec = ber_spec(SCHEMES if order == "largest_first" else SCHEMES[::-1])
    monkeypatch.setattr(harness, "_worker_count", lambda: workers)
    monkeypatch.setattr(harness, "_CHUNK_SAMPLES", 24 * spec.params.n_oversampled)
    hpf = experiment_hpf(spec)
    rows = run_ber_experiment(spec).rows
    for index, scheme in enumerate(spec.schemes):
        alone = unit_cells(spec.params, scheme, 1.2, hpf, spec.bits_per_point, EBN0_DB,
                           [spec.seed, 1, index])
        got = [(row.bit_errors, row.bits_total) for row in rows if row.scheme == scheme.name]
        assert got == alone, scheme.name
        assert any(errors for errors, _ in alone), scheme.name  # the noise reached the slicer


@pytest.mark.parametrize("workers", [1, 2])
def test_each_papr_cell_equals_the_cell_on_its_own(monkeypatch, workers):
    spec = ExperimentSpec(params=ORACLE_PLANS["reference"][0], schemes=SCHEMES,
                          cr_values=(1.0, 1.4), n_symbols=1000, ccdf_read_point=1e-2, seed=43)
    monkeypatch.setattr(harness, "_worker_count", lambda: workers)
    curves = run_papr_experiment(spec).curves
    for scheme in spec.schemes:
        (clipped, unclipped), _ = papr_unit(spec, scheme)
        for cr, curve in zip(spec.cr_values, clipped, strict=True):
            got = curves[(scheme.name, cr)]
            assert np.array_equal(got.clipped.prob_exceed, curve.prob_exceed), (scheme.name, cr)
            assert np.array_equal(got.unclipped.prob_exceed, unclipped.prob_exceed), (scheme.name, cr)


@pytest.mark.parametrize("workers", [1, 2])
def test_an_experiment_call_makes_one_set_of_buffers_per_thread(monkeypatch, workers):
    # 2 CRs x 8 schemes: 8 PAPR units of 2 CRs each, or 16 BER units of 2
    # points each, each transmitting on `workers` threads.
    spec = ExperimentSpec(params=ORACLE_PLANS["reference"][0], schemes=SCHEMES,
                          cr_values=(1.0, 1.4), n_symbols=1000, ccdf_read_point=1e-2,
                          ebn0_grid_db=EBN0_DB, bits_per_point=20_000)
    monkeypatch.setattr(harness, "_worker_count", lambda: workers)
    monkeypatch.setattr(harness, "_CHUNK_SAMPLES", 16 * spec.params.n_oversampled)
    made = spy_chunk_buffers(monkeypatch)
    run_papr_experiment(spec)
    assert [frames for frames, _ in made] == [16 // workers] * workers
    made.clear()
    run_ber_experiment(spec)
    assert [frames for frames, _ in made] == [16 // workers] * workers


@pytest.mark.parametrize("workers", [1, 2])
def test_only_a_papr_call_of_several_crs_makes_the_spare(monkeypatch, workers):
    # A one-CR PAPR call (as every papr_ccdf operation is) and every BER
    # call make the buffers of before; a PAPR call of several CRs widens
    # each thread's scratch by half a block, in the same allocation.
    spec = ExperimentSpec(params=ORACLE_PLANS["reference"][0], schemes=SCHEMES[:2],
                          cr_values=(1.0, 1.4), n_symbols=1000, ccdf_read_point=1e-2,
                          ebn0_grid_db=EBN0_DB, bits_per_point=20_000)
    monkeypatch.setattr(harness, "_worker_count", lambda: workers)
    monkeypatch.setattr(harness, "_CHUNK_SAMPLES", 16 * spec.params.n_oversampled)
    made = spy_chunk_buffers(monkeypatch)
    block = spec.params.n_oversampled * 16 // workers
    for run, crs, scratch in ((run_papr_experiment, (1.0,), block),
                              (run_papr_experiment, (1.0, 1.4), block * 3 // 2),
                              (run_ber_experiment, (1.0, 1.4), block)):
        made.clear()
        run(dataclasses.replace(spec, cr_values=crs))
        assert [[b.size for b in buffers] for _, buffers in made] == [
            [block // spec.params.oversample, block, scratch]] * workers, (run.__name__, crs)
