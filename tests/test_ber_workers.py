"""The BER unit on the thread runner that the PAPR cell uses.

A unit's transmit chunks and its Eb/N0 points run on one thread per full
chunk budget, up to the CPU count. The bits, the transmit power, the
noise-free symbols and the error counts must not depend on the thread
count or the chunk length, a unit under two budgets must stay on the
calling thread, and a failure on a helper thread must surface as the
failing cell's ``ExperimentError`` with no thread left behind.
"""
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest

import paprsim.harness as harness
from paprsim import ExperimentError, ExperimentSpec, ModScheme, emit_csv, run_ber_experiment
from paprsim.harness import _ber_cells, _noise_free_unit, experiment_hpf

from oracles import ORACLE_PLANS

# 97 frames of 16-QAM on a 128-subcarrier plan: an odd count, so every
# even chunk length leaves a ragged last chunk.
MIN_BITS = 49_500
EBN0_DB = (2.0, 6.0, 10.0)


def runner_threads():
    return [t for t in threading.enumerate() if t.name.startswith("paprsim-runner")]


def unit_and_counts(monkeypatch, params, cr, hpf, workers, budget_blocks=None):
    """The unit's (bits, power, symbols) and its points' counts with
    ``workers`` CPUs and, if given, a budget of ``budget_blocks`` blocks."""
    with monkeypatch.context() as m:
        m.setattr(harness, "_worker_count", lambda: workers)
        if budget_blocks is not None:
            block_len = params.n_oversampled + params.cp_oversampled
            m.setattr(harness, "_CHUNK_SAMPLES", budget_blocks * block_len)
        scheme = ModScheme("qam", 16)
        unit = _noise_free_unit(params, scheme, cr, hpf, MIN_BITS, np.random.default_rng(37))
        counts = list(_ber_cells(params, scheme, cr, EBN0_DB, MIN_BITS, hpf, [5, 1, 0]))
    return unit, counts


@pytest.mark.parametrize("cr", [None, 1.2], ids=["unclipped", "cr1.2"])
@pytest.mark.parametrize("plan", ["reference", "nyquist_edge"])
def test_unit_and_counts_do_not_depend_on_the_worker_count(monkeypatch, plan, cr):
    # A budget of 4 blocks puts the 97-frame unit over 24 budgets, so it
    # takes every worker: the transmit chunks hold 4, 2 and 2 frames and
    # the points' chunks 40, 20 and 12 rows, all with a ragged last chunk.
    params, _ = ORACLE_PLANS[plan]
    hpf = experiment_hpf(ExperimentSpec(params=params))
    (bits, power, clean), counts = unit_and_counts(monkeypatch, params, cr, hpf, 1)
    assert bits.shape[0] == 97
    for workers in (1, 2, 3):
        (got_bits, got_power, got_clean), got_counts = unit_and_counts(
            monkeypatch, params, cr, hpf, workers, budget_blocks=4)
        assert np.array_equal(got_bits, bits), workers
        assert got_power == power, workers
        assert np.array_equal(got_clean, clean), workers
        assert got_counts == counts, workers
    assert not runner_threads()


def test_counts_with_more_workers_than_cpus_and_fast_thread_switching(monkeypatch):
    # A race (a shared noise buffer, a chunk drawn from the wrong point's
    # generator, a lost row of the symbols) would change a count or a symbol.
    params, _ = ORACLE_PLANS["reference"]
    hpf = experiment_hpf(ExperimentSpec(params=params))
    want = unit_and_counts(monkeypatch, params, 1.0, hpf, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = unit_and_counts(monkeypatch, params, 1.0, hpf, 6, budget_blocks=4)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got[0][2], want[0][2]) and got[0][1] == want[0][1]
    assert got[1] == want[1]


def test_csv_files_do_not_depend_on_the_worker_count(monkeypatch, tmp_path):
    spec = ExperimentSpec(schemes=(ModScheme.from_name("qpsk"), ModScheme.from_name("8qam")),
                          cr_values=(1.0,), ebn0_grid_db=(4.0, 8.0, 12.0), bits_per_point=40_000)
    block_len = spec.params.n_oversampled + spec.params.cp_oversampled
    files = []
    for workers in (1, 2, 3):
        with monkeypatch.context() as m:
            m.setattr(harness, "_worker_count", lambda: workers)
            m.setattr(harness, "_CHUNK_SAMPLES", 8 * block_len)
            files.append(emit_csv(run_ber_experiment(spec).rows, tmp_path / f"ber{workers}.csv"))
    assert files[0].read_bytes() == files[1].read_bytes() == files[2].read_bytes()


class CountingThread(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


def threads_started(monkeypatch, min_bits):
    """Helper threads a clipped 16-QAM unit with 3 points starts on 2 CPUs."""
    CountingThread.started = 0
    fake = types.SimpleNamespace(Thread=CountingThread, Lock=threading.Lock,
                                 Event=threading.Event)
    with monkeypatch.context() as m:
        m.setattr(harness, "threading", fake)
        m.setattr(harness, "_worker_count", lambda: 2)
        params, _ = ORACLE_PLANS["reference"]
        hpf = experiment_hpf(ExperimentSpec(params=params))
        list(_ber_cells(params, ModScheme("qam", 16), 1.2, EBN0_DB, min_bits, hpf, [5, 1, 0]))
    return CountingThread.started


def test_a_unit_under_two_budgets_starts_no_helper_thread(monkeypatch):
    # 98 frames of 1280 samples are 0.96 budgets and 391 frames 3.8; at 2
    # CPUs the larger unit starts one helper for its transmit and one for
    # its first batch of two points; the third point runs alone.
    assert threads_started(monkeypatch, 50_000) == 0
    assert threads_started(monkeypatch, 200_000) == 2


def failing_on_a_helper(monkeypatch, name):
    """Make harness.<name> raise when a helper thread calls it."""
    real = getattr(harness, name)

    def stage(*args, **kwargs):
        if threading.current_thread().name.startswith("paprsim-runner"):
            raise RuntimeError("stage failed on a helper thread")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, name, stage)


SPEC = ExperimentSpec(schemes=(ModScheme.from_name("qpsk"),), cr_values=(1.2,),
                      ebn0_grid_db=(4.0, 8.0, 12.0), bits_per_point=40_000)


def test_a_failing_transmit_chunk_on_a_helper_names_the_first_cell(monkeypatch):
    # 157 frames in 40 budgets of 4 blocks: the helper takes some of the
    # 79 chunks however the threads are scheduled.
    block_len = SPEC.params.n_oversampled + SPEC.params.cp_oversampled
    monkeypatch.setattr(harness, "_worker_count", lambda: 2)
    monkeypatch.setattr(harness, "_CHUNK_SAMPLES", 4 * block_len)
    failing_on_a_helper(monkeypatch, "_composed_rows")
    with pytest.raises(ExperimentError,
                       match=r"scheme=qpsk, cr=1\.2, ebn0=4\b.*failed on a helper"):
        run_ber_experiment(SPEC)
    assert not runner_threads()


def test_a_failing_point_names_its_own_cell(monkeypatch):
    # The second point fails while the first, in the same batch, succeeds:
    # the error waits for the second point's cell.
    block_len = SPEC.params.n_oversampled + SPEC.params.cp_oversampled
    monkeypatch.setattr(harness, "_worker_count", lambda: 2)
    monkeypatch.setattr(harness, "_CHUNK_SAMPLES", 4 * block_len)
    sigma = harness.noise_sigma

    def failing_sigma(params, scheme, ebn0_db, power):
        if ebn0_db == 8.0:
            raise RuntimeError("point failed")
        return sigma(params, scheme, ebn0_db, power)

    monkeypatch.setattr(harness, "noise_sigma", failing_sigma)
    progress = []
    with pytest.raises(ExperimentError, match=r"scheme=qpsk, cr=1\.2, ebn0=8\b.*point failed"):
        run_ber_experiment(SPEC, progress=progress.append)
    assert progress == ["ber qpsk cr=1.2 ebn0=4 dB", "ber qpsk cr=1.2 ebn0=8 dB"]
    assert not runner_threads()


def cells_peak_and_kept_bytes(min_bits):
    """tracemalloc peak of one clipped QPSK unit with its 7 points on the
    reference plan, and the bytes of the bits and symbols it keeps."""
    params = ORACLE_PLANS["reference"][0]
    scheme = ModScheme.from_name("qpsk")
    hpf = experiment_hpf(ExperimentSpec(params=params))
    grid = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
    tracemalloc.start()
    try:
        list(_ber_cells(params, scheme, 1.0, grid, min_bits, hpf, [7, 1, 0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    frames = -(-min_bits // (params.n_subcarriers * scheme.bits_per_symbol))
    return peak, frames * params.n_subcarriers * (scheme.bits_per_symbol + 16)


def test_ber_points_grow_only_by_what_the_unit_keeps(monkeypatch):
    # From 2*10^5 to 8*10^5 bits the unit keeps 0.6 MB more bits and 4.8 MB
    # more symbols. A point that drew its noise, demapped or compared its
    # bits for the whole unit at once would add arrays of the unit's size:
    # 3.2 MB of normals at 8*10^5 bits for the noise alone. One worker, so
    # both peaks are deterministic (see the next test for threads).
    monkeypatch.setattr(harness, "_worker_count", lambda: 1)
    cells_peak_and_kept_bytes(20_000)  # caches filled once, outside the comparison
    small_peak, small_kept = cells_peak_and_kept_bytes(200_000)
    large_peak, large_kept = cells_peak_and_kept_bytes(800_000)
    assert large_peak - small_peak <= large_kept - small_kept + 2**20, (
        small_peak, large_peak, small_kept, large_kept)


def test_threads_hold_one_budget_in_flight(monkeypatch):
    # Each of T threads takes chunks of 1/T of the budget, so the peak with
    # 2 or 3 workers stays within 1 MiB of the one-worker peak; chunks of a
    # full budget per thread would add at least 2 MB per extra thread. How
    # the threads' chunk temporaries overlap in time varies from run to
    # run, so a threaded peak can also come out lower.
    monkeypatch.setattr(harness, "_worker_count", lambda: 1)
    cells_peak_and_kept_bytes(20_000)
    one, _ = cells_peak_and_kept_bytes(800_000)
    for workers in (2, 3):
        monkeypatch.setattr(harness, "_worker_count", lambda: workers)
        peak, _ = cells_peak_and_kept_bytes(800_000)
        assert peak <= one + 2**20, (workers, one, peak)
