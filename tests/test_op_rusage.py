"""``tools/op_rusage.py``'s cell clock, on synthetic progress messages.

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
