"""The BER unit on the thread runner that the PAPR cell uses, and the runner.

A unit's transmit chunks and each of its Eb/N0 points run as chunk loops
on one thread per full chunk budget, up to the CPU count. The bits, the
transmit power, the noise-free symbols and the error counts must not
depend on the thread count or the chunk length, a unit under two budgets
must stay on the calling thread, a cell must compute only its own point,
and a failure on a helper thread must surface as the failing cell's
``ExperimentError`` with no thread left behind.
"""
import dataclasses
import sys
import threading
import tracemalloc
import types
from contextlib import closing

import numpy as np
import pytest

import paprsim.harness as harness
from paprsim import (
    BerRow,
    ExperimentError,
    ExperimentSpec,
    ModScheme,
    run_ber_experiment,
    simulate_chain_ber,
)
from paprsim.cli import _write_csv
from paprsim.harness import _ber_cells, experiment_hpf

from oracles import ORACLE_PLANS, ber_points, label_bits, per_point_normals
from units import noise_free_unit, papr_cell, runner_threads, unit_cells, unit_space

# 97 frames of 16-QAM on a 128-subcarrier plan: an odd count, so every
# even chunk length leaves a ragged last chunk.
MIN_BITS = 49_500
EBN0_DB = (2.0, 6.0, 10.0)


def unit_and_counts(monkeypatch, params, cr, hpf, workers, budget_blocks=None):
    """The unit's (sent labels, power, symbols, None) and its points' counts with
    ``workers`` CPUs and, if given, a budget of ``budget_blocks`` blocks."""
    with monkeypatch.context() as m:
        m.setattr(harness, "_worker_count", lambda: workers)
        if budget_blocks is not None:
            m.setattr(harness, "_CHUNK_SAMPLES", budget_blocks * params.n_oversampled)
        scheme = ModScheme("qam", 16)
        unit = noise_free_unit(params, scheme, cr, hpf, MIN_BITS, 37)
        counts = unit_cells(params, scheme, cr, hpf, MIN_BITS, EBN0_DB, [5, 1, 0])
    return unit, counts


@pytest.mark.parametrize("cr", [None, 1.2], ids=["unclipped", "cr1.2"])
@pytest.mark.parametrize("plan", ["reference", "nyquist_edge"])
def test_unit_and_counts_do_not_depend_on_the_worker_count(monkeypatch, plan, cr):
    # A budget of 4 blocks puts the 97-frame unit over 24 budgets, so it
    # takes every worker: the transmit chunks hold 4, 2 and 2 frames and
    # the points' chunks 32, 16 and 16 rows, all with a ragged last chunk.
    params, _ = ORACLE_PLANS[plan]
    hpf = experiment_hpf(ExperimentSpec(params=params))
    (sent, power, clean, _), counts = unit_and_counts(monkeypatch, params, cr, hpf, 1)
    assert sent.shape[0] == 97
    for workers in (1, 2, 3):
        (got_sent, got_power, got_clean, _), got_counts = unit_and_counts(
            monkeypatch, params, cr, hpf, workers, budget_blocks=4)
        assert np.array_equal(got_sent, sent), workers
        assert got_power == power, workers
        assert np.array_equal(got_clean, clean), workers
        assert got_counts == counts, workers
    assert not runner_threads()


@pytest.mark.parametrize("cr", [None, 1.2], ids=["unclipped", "cr1.2"])
def test_every_point_scales_the_normals_point_0_drew_on_its_own(monkeypatch, cr):
    # Point i of a unit adds sigma_n(i) times one draw of normals, the draw
    # that point 0 made when each point drew its own, so point 0 and every
    # single-point simulate_chain_ber keep their counts bit for bit, and
    # the later points equal the oracle fed point 0's normals, on any
    # worker count and chunk length.
    params, _ = ORACLE_PLANS["reference"]
    hpf = experiment_hpf(ExperimentSpec(params=params))
    scheme = ModScheme("qam", 16)

    def oracle(entropy, grid):
        bit_seed = np.random.SeedSequence(entropy).spawn(1)[0]
        sent, power, clean, _ = noise_free_unit(params, scheme, cr, hpf, MIN_BITS, bit_seed)
        bits = label_bits(sent, scheme)
        own = per_point_normals(entropy, grid, clean.shape)
        return (ber_points(bits, power, clean, scheme, params, cr, grid, own),
                ber_points(bits, power, clean, scheme, params, cr, grid, own[:1] * len(grid)))

    own, shared = oracle([5, 1, 0], EBN0_DB)
    (chain,), _ = oracle([5, 2, 0], (6.0,))
    assert own[1:] != shared[1:]  # the two oracles tell the draws apart
    for workers in (1, 2, 3):
        for budget_blocks in (None, 4):
            _, counts = unit_and_counts(monkeypatch, params, cr, hpf, workers, budget_blocks)
            errors = [count for count, _ in counts]
            assert errors[0] == own[0] and errors == shared, (workers, budget_blocks)
            with monkeypatch.context() as m:
                m.setattr(harness, "_worker_count", lambda: workers)
                if budget_blocks is not None:
                    m.setattr(harness, "_CHUNK_SAMPLES", budget_blocks * params.n_oversampled)
                got, _ = simulate_chain_ber(params, scheme, ebn0_db=6.0, cr=cr,
                                            min_bits=MIN_BITS, seed=5, hpf=hpf)
            assert got == chain, (workers, budget_blocks)


def test_counts_with_more_workers_than_cpus_and_fast_thread_switching(monkeypatch):
    # A race (a shared noise buffer, normals drawn out of chunk order, a
    # lost row of the symbols) would change a count or a symbol.
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
    block_len = spec.params.n_oversampled
    header = [f.name for f in dataclasses.fields(BerRow)]
    files = []
    for workers in (1, 2, 3):
        with monkeypatch.context() as m:
            m.setattr(harness, "_worker_count", lambda: workers)
            m.setattr(harness, "_CHUNK_SAMPLES", 8 * block_len)
            rows = map(dataclasses.astuple, run_ber_experiment(spec).rows)
            files.append(_write_csv(tmp_path / f"ber{workers}.csv", header, rows))
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
        scheme = ModScheme("qam", 16)
        unit_cells(params, scheme, 1.2, hpf, min_bits, EBN0_DB, [5, 1, 0])
    return CountingThread.started


def test_a_unit_under_two_budgets_starts_no_helper_thread(monkeypatch):
    # 98 frames of 1024 samples are 0.77 budgets and 391 frames 3.05; at 2
    # CPUs the larger unit's transmit starts the workspace's one helper,
    # and its three points, whose chunks hold half the rows each, hand
    # their share to that helper: one start for the four loops, not four.
    assert threads_started(monkeypatch, 50_000) == 0
    assert threads_started(monkeypatch, 200_000) == 1


def test_the_first_cell_of_a_unit_demaps_only_its_own_point(monkeypatch):
    # At 2 CPUs the 391-frame unit runs on 2 threads, and its first value
    # demaps point 0's rows and none of the other points' rows.
    monkeypatch.setattr(harness, "_worker_count", lambda: 2)
    demapped = []
    demap = harness._demap_rows

    def spy(symbols, scheme, *args):
        labels = demap(symbols, scheme, *args)
        demapped.append(labels.shape[0])
        return labels

    monkeypatch.setattr(harness, "_demap_rows", spy)
    params, _ = ORACLE_PLANS["reference"]
    hpf = experiment_hpf(ExperimentSpec(params=params))
    scheme = ModScheme("qam", 16)
    with unit_space(params, scheme, 200_000) as space:
        cells = _ber_cells(params, scheme, 1.2, hpf, 200_000, EBN0_DB, [5, 1, 0], space)
        next(cells)
        assert sum(demapped) == 391
        assert len(list(cells)) == 2 and sum(demapped) == 3 * 391


@pytest.mark.parametrize("workers", [1, 2])
def test_the_ber_transmit_and_the_papr_cell_take_chunks_of_one_length(monkeypatch, workers):
    # Both chunks form N*L-sample blocks, and both loops size their chunks
    # by them. The BER transmit counted N*L + cp*L samples a frame, which
    # no chunk forms, and took 102 or 50 frames where the PAPR cell took
    # 128 or 64.
    spec = ExperimentSpec(schemes=(ModScheme.from_name("qpsk"),), n_symbols=1000,
                          ccdf_read_point=1e-2)
    params, scheme = spec.params, spec.schemes[0]
    assert params.cp_len > 0
    hpf = experiment_hpf(spec)
    monkeypatch.setattr(harness, "_worker_count", lambda: workers)
    chunk_rows = []
    map_rows = harness._map_rows

    def spy(bits, scheme, out=None, labels=None):
        chunk_rows[-1].append(bits.shape[0])
        return map_rows(bits, scheme, out=out, labels=labels)

    monkeypatch.setattr(harness, "_map_rows", spy)
    chunk_rows.append([])
    papr_cell(spec, scheme, 1.2)
    chunk_rows.append([])
    noise_free_unit(params, scheme, 1.2, hpf, 1000 * 256, 0)
    papr, ber = chunk_rows
    assert sum(papr) == sum(ber) == 1000
    assert max(papr) == max(ber) == 128 // workers


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_the_runner_hands_out_every_row_once_in_row_order(threads):
    # 11 rows in chunks of 4: two full slices and a clamped last one.
    want = [slice(0, 4), slice(4, 8), slice(8, 11)]
    claims, done = [], []

    def claim(rows):
        claims.append(rows)
        return rows.start

    def work(thread, rows, claimed):
        assert 0 <= thread < threads and claimed == rows.start
        done.append(rows)
        return rows.start

    # The runner returns what each chunk's work returned, one per chunk.
    with closing(harness._Helpers()) as helpers:
        got = harness._on_chunks(11, 4, work, claim=claim, threads=threads, helpers=helpers)
    assert sorted(got) == [0, 4, 8]
    assert claims == want
    assert sorted(done, key=lambda rows: rows.start) == want
    assert not runner_threads()


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_a_failing_chunk_raises_and_leaves_no_runner_thread(threads):
    def work(thread, rows, _):
        if rows.start == 4:
            raise RuntimeError("chunk failed")

    with closing(harness._Helpers()) as helpers, pytest.raises(RuntimeError, match="chunk failed"):
        harness._on_chunks(11, 4, work, threads=threads, helpers=helpers)
    assert not runner_threads()


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
    block_len = SPEC.params.n_oversampled
    monkeypatch.setattr(harness, "_worker_count", lambda: 2)
    monkeypatch.setattr(harness, "_CHUNK_SAMPLES", 4 * block_len)
    failing_on_a_helper(monkeypatch, "_composed_rows")
    with pytest.raises(ExperimentError,
                       match=r"scheme=qpsk, cr=1\.2, ebn0=4\b.*failed on a helper"):
        run_ber_experiment(SPEC)
    assert not runner_threads()


def test_a_failing_point_names_its_own_cell(monkeypatch):
    # The second point fails after the first succeeds: the error belongs
    # to the second point's cell.
    block_len = SPEC.params.n_oversampled
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
    reference plan, and the bytes of the bits, symbols and normals it
    keeps."""
    params = ORACLE_PLANS["reference"][0]
    scheme = ModScheme.from_name("qpsk")
    hpf = experiment_hpf(ExperimentSpec(params=params))
    grid = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
    tracemalloc.start()
    try:
        unit_cells(params, scheme, 1.0, hpf, min_bits, grid, [7, 1, 0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    frames = -(-min_bits // (params.n_subcarriers * scheme.bits_per_symbol))
    return peak, frames * params.n_subcarriers * (scheme.bits_per_symbol + 16 + 16)


def test_ber_points_grow_only_by_what_the_unit_keeps(monkeypatch):
    # From 2*10^5 to 8*10^5 bits the unit keeps 0.6 MB more bits, 4.8 MB
    # more symbols and 4.8 MB more normals: the unit keeps its one draw of
    # normals, 16 bytes a symbol, by design, since every point scales it. A
    # point that scaled its noise, demapped or compared its bits for the
    # whole unit at once would add arrays of the unit's size: 6.4 MB at
    # 8*10^5 bits for the scaled noise alone. One worker, so both peaks are
    # deterministic (see the next test for threads).
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
