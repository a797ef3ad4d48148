"""The PAPR cell on worker threads, and the stage functions' ``out=``.

A cell runs its chunks on the harness's thread runner, one thread per full
chunk budget up to the number of CPUs; the results must not depend on that
number, a failing chunk must stop the cell cleanly, and a forked child must
be able to run a cell.
"""
import multiprocessing
import sys
import warnings

import numpy as np
import pytest

from paprsim import (
    ExperimentError,
    ModScheme,
    ShapeError,
    clip_baseband,
    composed_filter,
    map_bits,
    ofdm_modulate,
    oversample_extend,
    run_papr_experiment,
)
from paprsim import clip_filter, harness
from paprsim.harness import ExperimentSpec, _chunk_frames, _clip_level, experiment_hpf

from oracles import ORACLE_PLANS
from units import noise_free_unit, papr_cell, papr_cell_vectors, runner_threads, spy_chunk_buffers

# 1037 symbols leave a partial last chunk at every worker count below, on
# every plan (the first assertion of the test checks it).
N_SYMBOLS = 1037
PLANS = [("reference", "16qam", 0.8), ("nyquist_edge", "8psk", 1.2),
         ("high_carrier", "32qam", 1.0)]


def cell_vectors(monkeypatch, spec, scheme, cr, workers):
    """The cell's (processed, unclipped) PAPR vectors and curves with the
    given number of workers."""
    monkeypatch.setattr(harness, "_worker_count", lambda: workers)
    curves, values = papr_cell_vectors(monkeypatch, spec, scheme, cr)
    monkeypatch.undo()
    return values, curves


@pytest.mark.parametrize("plan, scheme_name, cr", PLANS, ids=[p[0] for p in PLANS])
def test_papr_vectors_do_not_depend_on_the_worker_count(monkeypatch, plan, scheme_name, cr):
    params, _ = ORACLE_PLANS[plan]
    scheme = ModScheme.from_name(scheme_name)
    spec = ExperimentSpec(params=params, schemes=(scheme,), cr_values=(cr,),
                          n_symbols=N_SYMBOLS, ccdf_read_point=1e-2)
    one_values, one_curves = cell_vectors(monkeypatch, spec, scheme, cr, 1)
    for workers in (2, 3):
        assert N_SYMBOLS % _chunk_frames(params.n_oversampled * workers)
        values, curves = cell_vectors(monkeypatch, spec, scheme, cr, workers)
        for got, want in zip(values, one_values):
            assert np.array_equal(got, want), workers
        for got, want in zip(curves, one_curves):
            assert np.array_equal(got.prob_exceed, want.prob_exceed)
    assert not runner_threads()


def test_more_workers_than_cpus_with_fast_thread_switching(monkeypatch):
    # A race between the threads (a shared buffer, a bit draw out of chunk
    # order, a lost write of a PAPR row) would show as a changed vector.
    params, _ = ORACLE_PLANS["reference"]
    scheme = ModScheme.from_name("qpsk")
    spec = ExperimentSpec(params=params, schemes=(scheme,), cr_values=(1.0,),
                          n_symbols=N_SYMBOLS, ccdf_read_point=1e-2)
    want, _ = cell_vectors(monkeypatch, spec, scheme, 1.0, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got, _ = cell_vectors(monkeypatch, spec, scheme, 1.0, 6)
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_a_failing_chunk_stops_the_cell_and_leaves_nothing_behind(monkeypatch):
    spec = ExperimentSpec(schemes=(ModScheme.from_name("qpsk"),), cr_values=(1.2,),
                          n_symbols=1500, ccdf_read_point=1e-2)
    before = run_papr_experiment(spec).rows
    chunks = -(-spec.n_symbols // _chunk_frames(spec.params.n_oversampled * 2))
    calls = []
    clip = harness._clip_magnitude_rows

    def failing_clip(samples, amplitude, *, out=None):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("clip failed on the third chunk")
        return clip(samples, amplitude, out=out)

    monkeypatch.setattr(harness, "_worker_count", lambda: 2)
    monkeypatch.setattr(harness, "_clip_magnitude_rows", failing_clip)
    with pytest.raises(ExperimentError, match=r"scheme=qpsk, cr=1\.2.*third chunk"):
        run_papr_experiment(spec)
    assert not runner_threads()
    assert len(calls) < chunks  # the other thread stopped before its next chunk
    monkeypatch.undo()
    assert run_papr_experiment(spec).rows == before


def test_the_fold_is_computed_once_per_cell_and_unit(monkeypatch):
    # The band and image offsets and the edge-halved gains depend only on
    # the plan and the filter, so the chunks share one fold: band_gains runs
    # once for a PAPR cell of 24 chunks and once for a clipped BER unit.
    spec = ExperimentSpec(schemes=(ModScheme.from_name("qpsk"),), cr_values=(1.2,),
                          n_symbols=1500, ccdf_read_point=1e-2)
    hpf = experiment_hpf(spec)
    gains, calls = clip_filter.band_gains, []

    def spy(params, hpf):
        calls.append(1)
        return gains(params, hpf)

    monkeypatch.setattr(clip_filter, "band_gains", spy)
    monkeypatch.setattr(harness, "_worker_count", lambda: 2)
    papr_cell(spec, spec.schemes[0], 1.2)
    assert len(calls) == 1
    noise_free_unit(spec.params, spec.schemes[0], 1.2, hpf, 200_000, 3)
    assert len(calls) == 2


def _forked_papr_rows(spec, queue):
    queue.put(run_papr_experiment(spec).rows)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
def test_a_forked_child_runs_a_papr_experiment():
    spec = ExperimentSpec(schemes=(ModScheme.from_name("qam"),), cr_values=(1.0,),
                          n_symbols=1500, ccdf_read_point=1e-2)
    rows = run_papr_experiment(spec).rows  # the parent has run its threads
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads, 3.12+
        child = context.Process(target=_forked_papr_rows, args=(spec, queue))
        child.start()
    try:
        assert queue.get(timeout=120) == rows
    finally:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0


# ---- the stage functions' out= ------------------------------------------------

def stage_inputs(plan="reference", frames=6, seed=31):
    params, _ = ORACLE_PLANS[plan]
    spec = ExperimentSpec(params=params, n_symbols=1000, ccdf_read_point=1e-2)
    rng = np.random.default_rng(seed)
    scheme = ModScheme.from_name("16qam")
    bits = rng.integers(0, 2, (frames, params.n_subcarriers * 4), dtype=np.uint8)
    baseband = ofdm_modulate(oversample_extend(map_bits(bits, scheme), params.oversample), params)
    return params, scheme, bits, baseband, experiment_hpf(spec)


def garbage(shape):
    return np.full(shape, np.nan, complex)


@pytest.mark.parametrize("plan", ["reference", "nyquist_edge"])
def test_stage_out_paths_equal_the_allocating_paths(plan):
    # An out= prefilled with NaN shows any element a stage leaves unwritten.
    params, scheme, bits, baseband, _ = stage_inputs(plan)
    n, total = params.n_subcarriers, params.n_oversampled
    symbols = map_bits(bits, scheme)
    frames = oversample_extend(symbols, params.oversample)
    cases = [
        (symbols, lambda out: map_bits(bits, scheme, out=out)),
        (frames, lambda out: oversample_extend(symbols, params.oversample, out=out)),
        (baseband, lambda out: ofdm_modulate(frames, params, out=out)),
    ]
    for want, stage in cases:
        out = garbage(want.shape)
        assert stage(out) is out
        assert np.array_equal(out, want)
    assert symbols.shape == (bits.shape[0], n) and frames.shape[-1] == total
    # In place, as the docstring allows.
    block = frames.copy()
    assert np.array_equal(ofdm_modulate(block, params, out=block), baseband)


@pytest.mark.parametrize("plan", ["reference", "nyquist_edge"])
def test_clip_and_composed_filter_leave_their_input_unchanged(plan):
    params, _, _, baseband, hpf = stage_inputs(plan)
    clipped = clip_baseband(baseband, _clip_level(params, 1.0))
    kept = baseband.copy(), clipped.copy()
    filtered = composed_filter(clipped, params, hpf)
    assert not np.array_equal(clipped, baseband) and not np.array_equal(filtered, clipped)
    assert np.array_equal(baseband, kept[0]) and np.array_equal(clipped, kept[1])


def test_stage_out_must_match_shape_and_dtype():
    params, scheme, bits, baseband, _ = stage_inputs()
    frames = oversample_extend(map_bits(bits, scheme), params.oversample)
    wrong = [np.empty(baseband.shape[:-1] + (7,), complex),
             np.empty((2,) + baseband.shape, complex), np.empty(baseband.shape, np.complex64)]
    calls = [
        lambda out: oversample_extend(map_bits(bits, scheme), params.oversample, out=out),
        lambda out: ofdm_modulate(frames, params, out=out),
    ]
    for call in calls:
        for out in wrong:
            with pytest.raises(ShapeError, match="out must be"):
                call(out)
    with pytest.raises(ShapeError, match="out must be"):
        map_bits(bits, scheme, out=np.empty((bits.shape[0], params.n_subcarriers)))


@pytest.mark.parametrize("experiment", ["papr_cell", "clipped_ber_unit"])
def test_the_stages_write_into_the_threads_buffers(monkeypatch, experiment):
    # Stages that lost their out= would give the same numbers, so only this
    # test sees it; fresh block-sized arrays per chunk cost a PAPR
    # experiment page faults and system time (README, "How the pipeline
    # works"). Both experiments run on 2 threads, one set of buffers each.
    params = ORACLE_PLANS["reference"][0]
    spec = ExperimentSpec(params=params, n_symbols=N_SYMBOLS, ccdf_read_point=1e-2)
    hpf = experiment_hpf(spec)
    scheme = ModScheme.from_name("16qam")
    monkeypatch.setattr(harness, "_worker_count", lambda: 2)
    buffers, outs = spy_chunk_buffers(monkeypatch), []
    for name in ("_map_rows", "_extend_rows", "_modulate_rows"):
        def stage(*args, out=None, _name=name, _stage=getattr(harness, name), **kwargs):
            outs.append((_name, out))
            return _stage(*args, out=out, **kwargs)
        monkeypatch.setattr(harness, name, stage)
    clip = harness._clip_magnitude_rows

    def clip_stage(*args, **kwargs):
        factor = clip(*args, **kwargs)
        outs.append(("_clip_magnitude_rows", factor))
        return factor

    monkeypatch.setattr(harness, "_clip_magnitude_rows", clip_stage)
    if experiment == "papr_cell":
        papr_cell(spec, scheme, 1.2)
    else:
        monkeypatch.setattr(harness, "_CHUNK_SAMPLES", 4 * params.n_oversampled)
        noise_free_unit(params, scheme, 1.2, hpf, 49_500, 3)
    assert len(buffers) == 2
    assert {name for name, _ in outs} == {
        "_map_rows", "_extend_rows", "_modulate_rows", "_clip_magnitude_rows"}
    for name, out in outs:
        assert out is not None, name
        assert any(np.shares_memory(out, buffer) for _, own in buffers for buffer in own), name
