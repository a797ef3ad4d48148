"""The tests' one way into the harness's experiment units.

Each unit helper runs one unit in a workspace of its own, made as
``simulate_chain_ber`` makes its own, whose helper threads are joined
before it returns: a PAPR cell, a BER unit's noise-free transmit and
receive, and a BER unit's cells; a PAPR cell can also give its PAPR
vectors. Two more list the live helper threads and spy on the chunk
buffers. The harness's functions are looked up when a helper runs, so a
test's monkeypatches reach them.
"""
import threading

import numpy as np

from paprsim import harness


def papr_cell(spec, scheme, cr, index=0):
    """The (clipped, unclipped) CCDF curves of the spec's PAPR cell at
    (scheme, cr), its bits seeded as the grid's cell ``index``."""
    with harness._workspace(spec.params, [spec.n_symbols], ber=False) as space:
        return harness._papr_cell(spec, scheme, cr, np.random.default_rng([spec.seed, 0, index]),
                                  harness.experiment_hpf(spec), space)


def papr_cell_vectors(monkeypatch, spec, scheme, cr):
    """``papr_cell``'s curves, and the (clipped, unclipped) PAPR vectors
    the cell estimated them from."""
    values, estimate = [], harness.estimate_ccdf

    def spy(papr_values, thresholds_db):
        values.append(np.array(papr_values))
        return estimate(papr_values, thresholds_db)

    with monkeypatch.context() as m:
        m.setattr(harness, "estimate_ccdf", spy)
        return papr_cell(spec, scheme, cr), values


def unit_space(params, scheme, min_bits, noisy=True):
    """A workspace for one BER unit of ``min_bits`` bits; its helper
    threads stop when the ``with`` block exits."""
    frames = harness._unit_frames(params, scheme, min_bits)
    return harness._workspace(params, [frames], ber=True, noisy=noisy)


def noise_free_unit(params, scheme, cr, hpf, min_bits, seed, noise_seed=None):
    """A BER unit's (sent labels, transmit power, noise-free symbols,
    normals): its bits drawn by ``default_rng(seed)`` and, given
    ``noise_seed``, its normals by ``default_rng(noise_seed)``, else None."""
    noise = None if noise_seed is None else np.random.default_rng(noise_seed)
    with unit_space(params, scheme, min_bits, noisy=noise is not None) as space:
        return harness._noise_free_unit(params, scheme, cr, hpf, min_bits,
                                        np.random.default_rng(seed), noise, space)


def unit_cells(params, scheme, cr, hpf, min_bits, grid, entropy):
    """Every (bit_errors, bits_total) of a BER unit at the Eb/N0 points of
    ``grid``, its streams keyed by ``entropy``."""
    noisy = any(ebn0_db is not None for ebn0_db in grid)
    with unit_space(params, scheme, min_bits, noisy) as space:
        return list(harness._ber_cells(params, scheme, cr, hpf, min_bits, grid, entropy, space))


def runner_threads() -> list:
    """The harness's helper threads that are alive."""
    return [t for t in threading.enumerate() if t.name.startswith("paprsim-runner")]


def spy_chunk_buffers(monkeypatch) -> list:
    """Record, as (frames, buffers), every set of chunk buffers the harness
    makes from now on."""
    made, make = [], harness._chunk_buffers

    def spy(frames, params):
        made.append((frames, make(frames, params)))
        return made[-1][1]

    monkeypatch.setattr(harness, "_chunk_buffers", spy)
    return made
