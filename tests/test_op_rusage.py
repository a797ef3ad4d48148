"""``tools/op_rusage.py``'s cell clock, on synthetic progress messages, and
its draw and stage clocks, on a fake clock.

A PAPR unit is a scheme, whose first CR cell carries the pass every CR
shares; a BER unit is a (scheme, CR) pair, whose first cell carries its
transmit. The clock splits each unit's first cell from its later cells,
so the carry is on the record. No workload runs here.
"""
import importlib.util
import types
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "op_rusage.py"


@pytest.fixture(scope="module")
def op_rusage():
    spec = importlib.util.spec_from_file_location("op_rusage", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def replay(op_rusage, monkeypatch, experiments):
    """Feed the clock each experiment's (message, seconds) cells, with a
    stop after each experiment, on a fake clock."""
    now = [0.0]
    monkeypatch.setattr(op_rusage, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
    clock = op_rusage.CellClock()
    for cells in experiments:
        for message, seconds in cells:
            clock(message)
            now[0] += seconds
        clock.stop()
    return dict(clock.first), dict(clock.later)


def test_a_papr_scheme_s_first_cr_cell_is_split_from_its_later_cr_cells(op_rusage, monkeypatch):
    first, later = replay(op_rusage, monkeypatch, [
        [("papr qpsk cr=1", 5.0), ("papr qpsk cr=1.4", 1.0),
         ("papr 8psk cr=1", 6.0), ("papr 8psk cr=1.4", 2.0)],
        # The next experiment's first cell starts a unit, also of the same scheme.
        [("papr qpsk cr=1", 7.0), ("papr qpsk cr=1.4", 3.0)],
    ])
    assert first == {("papr", "qpsk"): [5.0, 7.0], ("papr", "8psk"): [6.0]}
    assert later == {("papr", "qpsk"): [1.0, 3.0], ("papr", "8psk"): [2.0]}


def test_a_ber_unit_is_a_scheme_and_cr(op_rusage, monkeypatch):
    first, later = replay(op_rusage, monkeypatch, [
        [("ber qpsk cr=1 ebn0=2 dB", 4.0), ("ber qpsk cr=1 ebn0=8 dB", 1.0),
         ("ber qpsk cr=1.4 ebn0=2 dB", 5.0), ("ber qpsk cr=1.4 ebn0=8 dB", 2.0)],
        [("papr qpsk cr=1", 9.0)],
    ])
    assert first == {("ber", "qpsk"): [4.0, 5.0], ("papr", "qpsk"): [9.0]}
    assert later == {("ber", "qpsk"): [1.0, 2.0]}


@pytest.mark.parametrize("ebn0_db, normals_drawn", [(4.0, 1), (None, 0)], ids=["noisy", "noiseless"])
def test_the_draw_clocks_time_each_bit_draw_and_each_unit_s_normals(
        op_rusage, monkeypatch, ebn0_db, normals_drawn):
    # A fake clock that moves one second a read makes each timed draw one
    # second. One BER unit of 2000 QPSK bits is one transmit chunk: one bit
    # draw, and one normals draw if its point is noisy.
    from paprsim import ModScheme, OfdmParams, harness, simulate_chain_ber

    for name in ("_random_bits", "_unit_normals"):  # restored when the test ends
        monkeypatch.setattr(harness, name, getattr(harness, name))
    now = [0.0]

    def tick():
        now[0] += 1.0
        return now[0]

    monkeypatch.setattr(op_rusage, "time", types.SimpleNamespace(perf_counter=tick))
    draws = op_rusage.time_draws()
    simulate_chain_ber(OfdmParams(), ModScheme.from_name("qpsk"), ebn0_db=ebn0_db,
                       min_bits=2000, seed=5)
    assert draws == {"bits_s": 1.0, "normals_s": float(normals_drawn)}


def test_the_stage_clocks_time_every_stage_a_papr_chunk_calls(op_rusage, monkeypatch):
    # On the fake clock each timed call takes one second, so a stage's
    # seconds equal its calls. One thread, 1000 QPSK symbols at two CRs:
    # 8 chunks of up to 128 frames, each modulated once and clipped,
    # filtered and read twice, and its unclipped PAPR read once.
    from paprsim import ExperimentSpec, ModScheme, harness, run_papr_experiment

    for name in op_rusage.STAGES:  # restored when the test ends
        monkeypatch.setattr(harness, name, getattr(harness, name))
    monkeypatch.setattr(harness, "_worker_count", lambda: 1)
    now = [0.0]

    def tick():
        now[0] += 1.0
        return now[0]

    monkeypatch.setattr(op_rusage, "time", types.SimpleNamespace(perf_counter=tick))
    seconds, calls = op_rusage.time_calls({name: name for name in op_rusage.STAGES})
    run_papr_experiment(ExperimentSpec(schemes=(ModScheme.from_name("qpsk"),), cr_values=(1.0, 1.4),
                                       n_symbols=1000, ccdf_read_point=1e-2))
    assert calls == {"_random_bits": 8, "_map_rows": 8, "_extend_rows": 8, "_modulate_rows": 8,
                     "_clip_magnitude_rows": 16, "_composed_rows": 16, "_filter_inverse": 16,
                     "envelope_magnitude": 16, "_papr_db_rows": 24}
    assert seconds == {name: float(count) for name, count in calls.items()}
