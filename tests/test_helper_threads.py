"""The helper threads of one experiment call.

A call (``_walk_grid`` for an experiment, or ``simulate_chain_ber``)
starts a helper the first time one of its chunk loops needs it, at most
one fewer than its workspace has buffer sets, and hands every later loop,
transmit chunks and Eb/N0 points alike, to the helpers already running.
They are stopped and joined when the call returns or raises, so no
``paprsim-runner`` thread outlives it.
"""
import threading

import pytest

import paprsim.harness as harness
from paprsim import (
    ExperimentError,
    ExperimentSpec,
    ModScheme,
    run_ber_experiment,
    run_papr_experiment,
    simulate_chain_ber,
)

from oracles import ORACLE_PLANS

TWO_SCHEMES = (ModScheme.from_name("qpsk"), ModScheme.from_name("16qam"))


def runner_threads():
    return [t for t in threading.enumerate() if t.name.startswith("paprsim-runner")]


@pytest.fixture
def started(monkeypatch):
    """The names of the helper threads started from here on, on 2 CPUs."""
    names = []
    start = threading.Thread.start

    def counted(thread):
        if thread.name.startswith("paprsim-runner"):
            names.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    monkeypatch.setattr(harness, "_worker_count", lambda: 2)
    return names


def test_a_ber_experiment_starts_one_helper_for_all_its_loops(started):
    # 2 schemes x 2 CRs x 3 points at 2*10^5 bits: units of 782 and 391
    # frames, 6.1 and 3.05 budgets, so each of the 4 units' transmits and
    # 12 points runs on 2 threads. Started per loop, that was 16 helpers.
    spec = ExperimentSpec(schemes=TWO_SCHEMES, cr_values=(1.0, 1.4),
                          ebn0_grid_db=(4.0, 8.0, 12.0))
    assert len(run_ber_experiment(spec).rows) == 12
    assert started == ["paprsim-runner-1"]
    assert not runner_threads()


def test_a_papr_experiment_starts_one_helper_for_all_its_cells(started):
    # 4 cells of 1000 frames, 7.8 budgets each, each on 2 threads: one
    # helper in all, where each cell started its own.
    spec = ExperimentSpec(schemes=TWO_SCHEMES, cr_values=(1.0, 1.4), n_symbols=1000,
                          ccdf_read_point=1e-2)
    assert len(run_papr_experiment(spec).rows) == 4
    assert started == ["paprsim-runner-1"]
    assert not runner_threads()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_call_starts_one_helper_fewer_than_its_buffer_sets(monkeypatch, started, workers):
    # A budget of 8 blocks puts every unit and cell over 3 budgets, so
    # every loop runs on all the workers, and the workspace has one set of
    # buffers per worker.
    spec = ExperimentSpec(schemes=TWO_SCHEMES, cr_values=(1.2,), n_symbols=1000,
                          ccdf_read_point=1e-2, ebn0_grid_db=(4.0, 8.0), bits_per_point=40_000)
    monkeypatch.setattr(harness, "_worker_count", lambda: workers)
    monkeypatch.setattr(harness, "_CHUNK_SAMPLES", 8 * spec.params.n_oversampled)
    buffer_sets = []
    make = harness._chunk_buffers

    def spy(frames, params):
        buffer_sets.append(frames)
        return make(frames, params)

    monkeypatch.setattr(harness, "_chunk_buffers", spy)
    want = [f"paprsim-runner-{thread}" for thread in range(1, workers)]
    for run in (run_papr_experiment, run_ber_experiment):
        buffer_sets.clear()
        started.clear()
        run(spec)
        assert len(buffer_sets) == workers and started == want, run.__name__
    started.clear()
    simulate_chain_ber(spec.params, TWO_SCHEMES[0], ebn0_db=4.0, min_bits=40_000)
    assert started == want
    assert not runner_threads()


def test_a_call_whose_loops_fit_under_two_budgets_starts_none(started):
    # 79 and 40 frames of 1024 samples, 0.62 and 0.31 budgets, and a
    # loopback of 98 frames: every loop stays on the calling thread.
    spec = ExperimentSpec(schemes=TWO_SCHEMES, cr_values=(1.0, 1.4),
                          ebn0_grid_db=(4.0, 8.0), bits_per_point=20_000)
    run_ber_experiment(spec)
    simulate_chain_ber(spec.params, TWO_SCHEMES[1], min_bits=50_000)
    assert started == []


def test_no_helper_outlives_a_call_that_returns(started):
    spec = ExperimentSpec(schemes=TWO_SCHEMES[:1], cr_values=(1.2,), n_symbols=1000,
                          ccdf_read_point=1e-2, ebn0_grid_db=(8.0,))
    run_papr_experiment(spec)
    assert not runner_threads()
    run_ber_experiment(spec)
    assert not runner_threads()
    simulate_chain_ber(spec.params, TWO_SCHEMES[0], ebn0_db=8.0, cr=1.2,
                       hpf=harness.experiment_hpf(spec))
    assert not runner_threads()
    assert started == ["paprsim-runner-1"] * 3


def failing_on_a_helper(monkeypatch):
    """Make the composed filter's forward half raise on a helper thread,
    under a budget of 4 blocks, so that the helper takes some chunks of
    every loop however the threads are scheduled."""
    real = harness._composed_rows

    def stage(*args, **kwargs):
        if threading.current_thread().name.startswith("paprsim-runner"):
            raise RuntimeError("stage failed on a helper thread")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "_composed_rows", stage)
    monkeypatch.setattr(harness, "_CHUNK_SAMPLES", 4 * ORACLE_PLANS["reference"][0].n_oversampled)


def test_no_helper_outlives_a_papr_experiment_whose_helper_chunk_raises(monkeypatch, started):
    failing_on_a_helper(monkeypatch)
    spec = ExperimentSpec(schemes=TWO_SCHEMES[1:], cr_values=(1.4,), n_symbols=1000,
                          ccdf_read_point=1e-2)
    with pytest.raises(ExperimentError,
                       match=r"papr cell failed \(scheme=16qam, cr=1\.4\).*on a helper"):
        run_papr_experiment(spec)
    assert started == ["paprsim-runner-1"]
    assert not runner_threads()


def test_no_helper_outlives_a_loopback_whose_helper_chunk_raises(monkeypatch, started):
    failing_on_a_helper(monkeypatch)
    spec = ExperimentSpec()
    with pytest.raises(RuntimeError, match="on a helper"):
        simulate_chain_ber(spec.params, TWO_SCHEMES[0], ebn0_db=8.0, cr=1.2, min_bits=40_000,
                           hpf=harness.experiment_hpf(spec))
    assert started == ["paprsim-runner-1"]
    assert not runner_threads()
