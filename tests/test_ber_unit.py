"""The BER unit: one transmission per (scheme, CR), streamed chunk by chunk,
noise drawn at the N data bins, checked against the per-cell time-domain
path (AWGN on every passband sample, then ``demodulate_passband``) in
``oracles.py``."""
import math
import threading
import tracemalloc

import numpy as np
import pytest

import paprsim.harness as harness
from paprsim import (
    ExperimentError,
    ExperimentSpec,
    ModScheme,
    OfdmParams,
    ShapeError,
    add_awgn,
    clip_attenuation,
    demap_symbols,
    demodulate_passband,
    experiment_hpf,
    map_bits,
    run_ber_experiment,
    simulate_chain_ber,
)
from paprsim.clip_filter import _composed_fold
from paprsim.constellation import SCHEME_NAMES
from paprsim.harness import _add_bin_noise, _ber_chunk, _chunk_buffers, _clip_level, _random_bits

from oracles import ORACLE_PLANS, ber_points, complex_normals, label_bits, time_domain_ber_cell
from units import noise_free_unit, unit_cells

NOISE_PLANS = ("reference", "nyquist_edge", "high_carrier")
# The oracle plans and three plans whose prefix starts the carrier an
# eighth, a quarter and a half turn off a whole turn (phi != 1, see
# harness._band_read); on every oracle and benchmark plan phi = 1. The
# power sees phi only through the prefix, and phi = -1 merely flips the
# passband's sign, so a read that dropped phi fails on the quarter and
# eighth turns, and one that conjugated it on the eighth turn alone.
BER_PLANS = {
    **ORACLE_PLANS,
    "eighth_turn": (OfdmParams(n_subcarriers=64, oversample=8, carrier_hz=1.125e6, cp_len=1), {}),
    "quarter_turn": (OfdmParams(n_subcarriers=128, oversample=8, carrier_hz=2.25e6, cp_len=1), {}),
    "half_turn": (OfdmParams(n_subcarriers=64, oversample=6, carrier_hz=1.25e6, cp_len=6), {}),
}


def plan_hpf(plan):
    params, edges = BER_PLANS[plan]
    return experiment_hpf(ExperimentSpec(params=params, hpf_stop_edge=edges.get("stop_edge"),
                                         hpf_pass_edge=edges.get("pass_edge")))


def test_the_turn_plans_start_the_prefix_off_a_whole_carrier_turn():
    # Carrier turns at the prefix's first sample, k_c cp L / (N*L) mod 1.
    turns = {name: params.carrier_bin * params.cp_oversampled % params.n_oversampled
             / params.n_oversampled for name, (params, _) in BER_PLANS.items()}
    assert turns == {"reference": 0.0, "nyquist_edge": 0.0, "high_carrier": 0.0,
                     "dc_edge": 0.0, "eighth_turn": 0.125, "quarter_turn": 0.25,
                     "half_turn": 0.5}


@pytest.mark.parametrize("cr", [None, 1.2], ids=["unclipped", "cr1.2"])
@pytest.mark.parametrize("plan", sorted(BER_PLANS))
def test_noise_free_unit_equals_the_time_domain_path(plan, cr):
    # Same bits, whose label integers the unit keeps. Unclipped, the
    # received symbols are the mapped symbols exactly. The transmit power,
    # and clipped the symbols, are the literal chain's (prefix, upconvert,
    # real-FFT receiver) to round-off: the unit reads them from the band
    # bins and one inverse real FFT.
    params, _ = BER_PLANS[plan]
    scheme = ModScheme("qam", 16)
    hpf = plan_hpf(plan)
    sent, power, clean, _ = noise_free_unit(params, scheme, cr, hpf, 50_000, 31)
    bits = _random_bits(np.random.default_rng(31), sent.shape[0], sent.shape[1] * 4)
    assert sent.dtype == np.uint8 and np.array_equal(label_bits(sent, scheme), bits)
    want_power, _, want_clean, _ = time_domain_ber_cell(
        bits, scheme, params, cr, 6.0, hpf, np.random.default_rng(32))
    assert abs(power - want_power) <= 1e-14 * want_power, (power, want_power)
    if cr is None:
        assert np.array_equal(clean, map_bits(bits, scheme))
    else:
        assert np.max(np.abs(clean - want_clean)) <= 1e-14


@pytest.mark.parametrize("cr", [None, 1.2], ids=["unclipped", "cr1.2"])
@pytest.mark.parametrize("plan", sorted(BER_PLANS))
def test_ber_chunk_transforms(monkeypatch, plan, cr):
    # Clipped: the modulator's IFFT, the filter's forward real FFT and the
    # inverse real FFT to the passband symbol. Unclipped: that inverse real
    # FFT alone; no modulator transform runs.
    params, _ = BER_PLANS[plan]
    scheme = ModScheme("qam", 16)
    amplitude = None if cr is None else _clip_level(params, cr)
    fold = None if cr is None else _composed_fold(params, plan_hpf(plan))
    bits = _random_bits(np.random.default_rng(49), 6, params.n_subcarriers * 4)
    received = np.empty((6, params.n_subcarriers), complex)
    sent = np.empty((6, params.n_subcarriers), np.uint8)
    calls = dict.fromkeys(("fft", "ifft", "rfft", "irfft"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    _ber_chunk(bits, scheme, params, amplitude, fold, _chunk_buffers(6, params),
               received, np.empty(6), sent)
    monkeypatch.undo()
    assert np.array_equal(label_bits(sent, scheme), bits)
    if cr is None:
        assert calls == {"fft": 0, "ifft": 0, "rfft": 0, "irfft": 1}
        assert np.array_equal(received, map_bits(bits, scheme))
    else:
        assert calls == {"fft": 0, "ifft": 1, "rfft": 1, "irfft": 1}


@pytest.mark.parametrize("cr", [None, 1.2], ids=["unclipped", "cr1.2"])
@pytest.mark.parametrize("plan", ["reference", "nyquist_edge"])
def test_noise_free_unit_does_not_depend_on_the_chunk_length(monkeypatch, plan, cr):
    # Chunks of 6 frames leave a ragged last chunk of 2 of the 98 frames;
    # every row is computed on its own and the power is the mean of the
    # per-block mean squares, so the unit is the same bit for bit.
    params, _ = ORACLE_PLANS[plan]
    scheme = ModScheme("qam", 16)
    hpf = experiment_hpf(ExperimentSpec(params=params))
    unchunked = noise_free_unit(params, scheme, cr, hpf, 50_000, 35)
    block_len = params.n_oversampled
    monkeypatch.setattr(harness, "_CHUNK_SAMPLES", 6 * block_len)
    assert harness._chunk_frames(block_len) == 6 and unchunked[0].shape[0] % 6 == 2
    sent, power, clean, _ = noise_free_unit(params, scheme, cr, hpf, 50_000, 35)
    assert np.array_equal(sent, unchunked[0])
    assert power == unchunked[1]
    assert np.array_equal(clean, unchunked[2])


def unit_peak_and_kept_bytes(min_bits):
    """tracemalloc peak of one clipped QPSK unit on the reference plan, and
    the bytes of the sent labels and symbols it returns."""
    params = ORACLE_PLANS["reference"][0]
    hpf = experiment_hpf(ExperimentSpec(params=params))
    tracemalloc.start()
    try:
        sent, _, clean, _ = noise_free_unit(params, ModScheme.from_name("qpsk"), 1.0, hpf,
                                            min_bits, 36)
        return tracemalloc.get_traced_memory()[1], sent.nbytes + clean.nbytes
    finally:
        tracemalloc.stop()


def test_ber_unit_memory_grows_only_by_what_it_keeps(monkeypatch):
    # From 2*10^5 to 8*10^5 bits the unit keeps 0.3 MB more sent labels,
    # one byte a symbol, and 4.8 MB more symbols. The slack covers the per-block mean squares (8 bytes a
    # frame, 19 kB here) and allocator noise. A whole-unit complex block
    # would grow by 16 bytes per passband sample, 58 MB here. One worker:
    # on threads the peak depends on how the threads' chunk temporaries
    # overlap in time (test_ber_workers.py bounds the threaded peak).
    monkeypatch.setattr(harness, "_worker_count", lambda: 1)
    unit_peak_and_kept_bytes(20_000)  # caches filled once, outside the comparison
    small_peak, small_kept = unit_peak_and_kept_bytes(200_000)
    large_peak, large_kept = unit_peak_and_kept_bytes(800_000)
    slack = 2**20
    assert large_peak - small_peak <= large_kept - small_kept + slack, (
        small_peak, large_peak, small_kept, large_kept)


@pytest.mark.parametrize("scheme_name", ["16qam", "8qam", "32psk"])
@pytest.mark.parametrize("plan", NOISE_PLANS)
def test_unclipped_unit_slices_the_sent_symbols(monkeypatch, plan, scheme_name):
    # The unclipped chain's gain at every data bin is exactly 1, so a
    # noiseless unclipped unit hands the slicer map_bits(bits), divided
    # by 1. A blind estimate from the received power carries the
    # sampling error of the mean symbol energy: up to 0.5 % on 16-QAM in
    # three draws of 2*10^4 bits.
    # The point demaps its symbols chunk by chunk, in row order, and the
    # slicer's labels are those of the sent bits.
    params, _ = ORACLE_PLANS[plan]
    scheme = ModScheme.from_name(scheme_name)
    seen = {"bits": [], "symbols": [], "labels": []}
    draw, demap = harness._random_bits, harness._demap_rows

    def bits_spy(rng, n_frames, bits_per_frame):
        seen["bits"].append(draw(rng, n_frames, bits_per_frame))
        return seen["bits"][-1]

    def demap_spy(symbols, scheme, *args):
        seen["symbols"].append(symbols.copy())
        labels = demap(symbols, scheme, *args)
        seen["labels"].append(labels.copy())  # the point XORs the labels in place
        return labels

    monkeypatch.setattr(harness, "_random_bits", bits_spy)
    monkeypatch.setattr(harness, "_demap_rows", demap_spy)
    assert simulate_chain_ber(params, scheme, min_bits=20_000, seed=33)[0] == 0
    bits = np.concatenate(seen["bits"])
    assert np.array_equal(np.concatenate(seen["symbols"]), map_bits(bits, scheme))
    assert np.array_equal(label_bits(np.concatenate(seen["labels"]), scheme), bits)


@pytest.mark.parametrize("cr", [None, 1.0], ids=["unclipped", "cr1.0"])
def test_qpsk_bit_errors_nest_across_the_eb_n0_grid(monkeypatch, cr):
    # Every point of a unit scales one draw of normals. A Gray QPSK bit is
    # the sign of one part of sigma_n z + clean, so a bit that is wrong at
    # some Eb/N0 is wrong at every lower one: the error masks nest. With a
    # draw per point they do not: 10232 (unclipped) and 11811 (CR 1.0) bits
    # in error at 2 dB were right at 0 dB on this unit.
    monkeypatch.setattr(harness, "_worker_count", lambda: 1)
    labels, demap = [], harness._demap_rows

    def demap_spy(symbols, scheme, *args):
        received = demap(symbols, scheme, *args)
        labels.append(received.copy())  # the point XORs the labels in place
        return received

    monkeypatch.setattr(harness, "_demap_rows", demap_spy)
    spec, scheme = ExperimentSpec(), ModScheme.from_name("qpsk")
    grid, entropy = spec.ebn0_grid_db, [spec.seed, 1, 0]
    counts = unit_cells(spec.params, scheme, cr, experiment_hpf(spec), spec.bits_per_point,
                        grid, entropy)
    bit_seed = np.random.SeedSequence(entropy).spawn(1)[0]
    bits_per_frame = spec.params.n_subcarriers * scheme.bits_per_symbol
    bits = _random_bits(np.random.default_rng(bit_seed), counts[0][1] // bits_per_frame,
                        bits_per_frame)
    # One worker: the points demap in grid order, each chunk by chunk in row order.
    masks = label_bits(np.concatenate(labels), scheme).reshape(len(grid), *bits.shape) != bits
    assert [int(np.count_nonzero(mask)) for mask in masks] == [errors for errors, _ in counts]
    for point in range(1, len(grid)):
        assert not np.any(masks[point] & ~masks[point - 1]), grid[point]


class CountingGenerator(np.random.Generator):
    """A generator that counts its ``standard_normal`` calls."""

    normal_calls = 0

    def standard_normal(self, *args, **kwargs):
        type(self).normal_calls += 1
        return super().standard_normal(*args, **kwargs)


@pytest.mark.parametrize("cr", [None, 1.2], ids=["unclipped", "cr1.2"])
def test_a_noiseless_unit_draws_no_normals(monkeypatch, cr):
    # Only a unit with a noisy point draws its normals; a loopback unit
    # also allocates none. The noisy unit shows that the spy sees the draw.
    params, _ = ORACLE_PLANS["reference"]
    hpf = experiment_hpf(ExperimentSpec(params=params))
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: CountingGenerator(np.random.PCG64(seed)))
    calls = {}
    for grid in ((None,), (None, None), (None, 8.0)):
        CountingGenerator.normal_calls = 0
        scheme = ModScheme("qam", 16)
        counts = unit_cells(params, scheme, cr, hpf, 50_000, grid, [3, 1, 0])
        calls[grid] = CountingGenerator.normal_calls
        if cr is None:
            assert counts[0] == (0, 50_176), grid
    assert calls[(None,)] == calls[(None, None)] == 0 and calls[(None, 8.0)] > 0, calls


@pytest.mark.parametrize("workers", [1, 2])
def test_a_unit_s_normals_are_one_draw_of_all_its_rows(monkeypatch, workers):
    # 391 frames of QPSK: 4 transmit chunks on one CPU, 7 on two threads
    # when 2 CPUs are there. The loop's last thread draws the normals before
    # its first chunk: the calling thread alone, or the helper beside it.
    params, _ = ORACLE_PLANS["reference"]
    monkeypatch.setattr(harness, "_worker_count", lambda: workers)
    drawn_on, draw = [], harness._unit_normals

    def spy(noise, normals):
        drawn_on.append(threading.current_thread().name)
        draw(noise, normals)

    monkeypatch.setattr(harness, "_unit_normals", spy)
    _, _, clean, normals = noise_free_unit(params, ModScheme.from_name("qpsk"), 1.2,
                                           experiment_hpf(ExperimentSpec()), 100_000, 37, 38)
    want = np.random.default_rng(38).standard_normal((clean.shape[0], 2 * clean.shape[1]))
    assert np.array_equal(normals.view(float), want)
    assert drawn_on == ["MainThread" if workers == 1 else "paprsim-runner-1"]


class ClaimWatch(np.random.Generator):
    """A generator that records each ``standard_normal`` call made while
    its thread runs a transmit claim (``in_claim``)."""

    in_claim, normals_in_claim, normal_calls = set(), [], [0]

    def standard_normal(self, *args, **kwargs):
        self.normal_calls[0] += 1
        if threading.get_ident() in self.in_claim:
            self.normals_in_claim.append(threading.current_thread().name)
        return super().standard_normal(*args, **kwargs)


@pytest.mark.parametrize("workers", [1, 2])
def test_no_claim_draws_a_normal(monkeypatch, workers):
    # The claim lock holds only the bit draw: each claim draws its rows'
    # bits once, and the unit's one normals draw runs outside every claim.
    # 391 frames of QPSK take 4 transmit chunks on one CPU, 7 on two.
    params, _ = ORACLE_PLANS["reference"]
    monkeypatch.setattr(harness, "_worker_count", lambda: workers)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: ClaimWatch(np.random.PCG64(seed)))
    ClaimWatch.in_claim, ClaimWatch.normals_in_claim, ClaimWatch.normal_calls = set(), [], [0]
    claims, bit_draws, on_chunks, draw = [0], [0], harness._on_chunks, harness._random_bits

    def bits_spy(*args):
        bit_draws[0] += 1
        return draw(*args)

    def watched(frames, step, work, *, claim=None, **kwargs):
        def watched_claim(rows):
            claims[0] += 1
            ClaimWatch.in_claim.add(threading.get_ident())
            try:
                return claim(rows)
            finally:
                ClaimWatch.in_claim.discard(threading.get_ident())

        return on_chunks(frames, step, work, claim=claim and watched_claim, **kwargs)

    monkeypatch.setattr(harness, "_random_bits", bits_spy)
    monkeypatch.setattr(harness, "_on_chunks", watched)
    unit_cells(params, ModScheme.from_name("qpsk"), 1.2, experiment_hpf(ExperimentSpec()),
               100_000, (4.0, 8.0), [5, 1, 0])
    assert claims[0] == bit_draws[0] == {1: 4, 2: 7}[workers]
    assert ClaimWatch.normal_calls == [1] and ClaimWatch.normals_in_claim == []


def iq_moments(noise):
    """Per-bin I variance, Q variance and I/Q covariance of zero-mean noise
    rows, each with its standard error over the rows."""
    products = np.stack([noise.real**2, noise.imag**2, noise.real * noise.imag])
    return products.mean(axis=1), products.std(axis=1, ddof=1) / math.sqrt(noise.shape[0])


@pytest.mark.parametrize("plan", NOISE_PLANS)
def test_bin_noise_matches_time_domain_noise_per_bin(plan):
    # White real noise on whole prefixed passband blocks, read by the
    # receiver, against the unit's draw at the data bins: per bin, the I
    # and Q variances and the I/Q covariance agree within 4 SEs. A plan has
    # 3N such comparisons, and chance alone puts one of 384 past 4 SEs in
    # about 2.4 % of runs (the z-scores are standard normal, measured over
    # 16 seeds on each plan), so one comparison may reach 4 SEs but none 5.
    # A read of the Nyquist bin on the nyquist_edge plan would give its Q
    # variance 0 and its I variance twice the value, about 50 SEs apart.
    params, _ = ORACLE_PLANS[plan]
    sigma_n, n_frames = 0.3, 3000
    rng = np.random.default_rng(41)
    block = params.n_oversampled + params.cp_oversampled
    passband = add_awgn(np.zeros((n_frames, block)), sigma_n, rng)
    time_domain = demodulate_passband(passband[:, params.cp_oversampled:], params)
    zeros = np.zeros((n_frames, params.n_subcarriers), dtype=complex)
    bin_domain = _add_bin_noise(zeros, sigma_n, complex_normals(rng, zeros.shape),
                                out=np.empty_like(zeros))
    (want, want_se), (got, got_se) = iq_moments(time_domain), iq_moments(bin_domain)
    z = np.abs(got - want) / np.hypot(got_se, want_se)
    assert np.count_nonzero(z >= 4.0) <= 1 and np.max(z) < 5.0, np.argwhere(z >= 4.0)


def two_sample_p(k1, n1, k2, n2):
    """Two-sided p-value that k1 of n1 and k2 of n2 share one rate:
    conditional on k1 + k2, k1 is Binomial(k1 + k2, n1 / (n1 + n2)); normal
    approximation with continuity correction, as for the large counts here."""
    total, pi = k1 + k2, n1 / (n1 + n2)
    var = total * pi * (1.0 - pi)
    assert var >= 50.0, (k1, k2)
    z = max(abs(k1 - total * pi) - 0.5, 0.0) / math.sqrt(var)
    return math.erfc(z / math.sqrt(2.0))


@pytest.mark.parametrize("plan", NOISE_PLANS)
def test_ber_matches_the_time_domain_oracle(plan):
    # Clipped 16-QAM at 10 dB, independent draws on each side; errors are
    # counted per symbol (divided by log2 M) as the benchmark's check does,
    # and the two counts must agree at alpha = 1e-6.
    params, _ = ORACLE_PLANS[plan]
    scheme, cr, ebn0, min_bits = ModScheme("qam", 16), 1.0, 10.0, 200_000
    hpf = experiment_hpf(ExperimentSpec(params=params))
    errors, total = simulate_chain_ber(params, scheme, ebn0_db=ebn0, cr=cr,
                                       min_bits=min_bits, seed=43, hpf=hpf)
    rng = np.random.default_rng(44)
    bits_per_frame = params.n_subcarriers * scheme.bits_per_symbol
    bits = _random_bits(rng, math.ceil(min_bits / bits_per_frame), bits_per_frame)
    _, _, _, noisy = time_domain_ber_cell(bits, scheme, params, cr, ebn0, hpf, rng)
    want = int(np.count_nonzero(demap_symbols(noisy / clip_attenuation(cr), scheme) != bits))
    k = scheme.bits_per_symbol
    assert two_sample_p(round(errors / k), total, round(want / k), bits.size) > 1e-6, (
        errors, want, total)


def test_progress_once_per_cell_in_order_and_no_bits_before_it(monkeypatch):
    # The benchmark times a cell from its progress call to the next one, so
    # each unit's shared transmit must follow its first cell's call.
    events = []
    draw = harness._random_bits

    def spy(rng, n_frames, bits_per_frame):
        events.append("bits")
        return draw(rng, n_frames, bits_per_frame)

    monkeypatch.setattr(harness, "_random_bits", spy)
    spec = ExperimentSpec(
        schemes=(ModScheme.from_name("qpsk"), ModScheme.from_name("8qam")),
        cr_values=(1.0, 1.4), ebn0_grid_db=(4.0, 8.0, 12.0), bits_per_point=2000,
    )
    run_ber_experiment(spec, progress=events.append)
    expected = []
    for scheme in spec.schemes:
        for cr in spec.cr_values:
            for point, ebn0 in enumerate(spec.ebn0_grid_db):
                expected.append(f"ber {scheme.name} cr={cr:g} ebn0={ebn0:g} dB")
                if point == 0:
                    expected.append("bits")
    assert events == expected


def test_a_failing_unit_names_scheme_cr_and_ebn0(monkeypatch):
    spec = ExperimentSpec(schemes=(ModScheme.from_name("qpsk"),), cr_values=(1.0,),
                          ebn0_grid_db=(4.0, 8.0), bits_per_point=2000)

    def boom(*args, **kwargs):
        raise ValueError("inner failure")

    # The shared transmit fails inside the unit's first cell.
    with monkeypatch.context() as m:
        m.setattr(harness, "_composed_rows", boom)
        with pytest.raises(ExperimentError, match=r"scheme=qpsk, cr=1, ebn0=4\b.*inner failure"):
            run_ber_experiment(spec)

    # A later point fails in its own cell.
    demap, calls = harness._demap_rows, []

    def second_fails(symbols, scheme, *args):
        calls.append(None)
        if len(calls) == 2:
            raise ValueError("inner failure")
        return demap(symbols, scheme, *args)

    monkeypatch.setattr(harness, "_demap_rows", second_fails)
    with pytest.raises(ExperimentError, match=r"scheme=qpsk, cr=1, ebn0=8\b"):
        run_ber_experiment(spec)



@pytest.mark.parametrize("cr", [None, 1.2], ids=["unclipped", "cr1.2"])
@pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
def test_a_point_counts_the_bits_demap_symbols_gets_wrong(scheme_name, cr):
    # A point counts the set bits of its decided labels XOR the sent ones;
    # that is count_nonzero(bits != demap_symbols(...)) on the unit's own
    # symbols, normals and bits, whole-unit, for every scheme, with a noise
    # level that leaves errors and a noiseless point, error-free unclipped.
    params, _ = ORACLE_PLANS["reference"]
    scheme, hpf = ModScheme.from_name(scheme_name), plan_hpf("reference")
    grid, entropy, min_bits = (0.0, 6.0, None), [9, 1, 3], 30_000
    counts = unit_cells(params, scheme, cr, hpf, min_bits, grid, entropy)
    sent, power, clean, normals = noise_free_unit(params, scheme, cr, hpf, min_bits,
                                                  *np.random.SeedSequence(entropy).spawn(2))
    want = ber_points(label_bits(sent, scheme), power, clean, scheme, params, cr, grid,
                      [normals] * len(grid))
    assert [errors for errors, _ in counts] == want
    assert want[0] > 0 and (cr is not None or want[-1] == 0)
    assert {total for _, total in counts} == {sent.size * scheme.bits_per_symbol}


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
def test_a_non_finite_symbol_reaching_a_point_fails_as_its_cell(monkeypatch, scheme_name, bad):
    # The second point's noise level is NaN or infinite, so are its
    # symbols, and the slicer, whose check that point's bound keeps,
    # refuses them: that cell fails, named, and the first has its count.
    spec = ExperimentSpec(schemes=(ModScheme.from_name(scheme_name),), cr_values=(1.0,),
                          ebn0_grid_db=(4.0, 8.0), bits_per_point=2000)
    sigma, cells = harness.noise_sigma, []

    def poisoned(params, scheme, ebn0_db, power):
        return bad if ebn0_db == 8.0 else sigma(params, scheme, ebn0_db, power)

    monkeypatch.setattr(harness, "noise_sigma", poisoned)
    with pytest.raises(ExperimentError, match=rf"scheme={scheme_name}, cr=1, ebn0=8\b.*"
                                              "cannot demap NaN or infinite symbols"):
        run_ber_experiment(spec, progress=cells.append)
    assert len(cells) == 2


@pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
def test_a_non_finite_noise_free_symbol_is_refused(monkeypatch, scheme_name):
    # A NaN among a unit's noise-free symbols makes every point's bound NaN,
    # so even the noiseless point's slicer checks, and refuses it.
    scheme, map_rows = ModScheme.from_name(scheme_name), harness._map_rows

    def poisoned(bits, scheme, *, out=None, labels=None):
        symbols = map_rows(bits, scheme, out=out, labels=labels)
        symbols[-1, -1] = complex(0.0, np.nan)
        return symbols

    monkeypatch.setattr(harness, "_map_rows", poisoned)
    with pytest.raises(ShapeError, match="cannot demap NaN or infinite symbols"):
        simulate_chain_ber(OfdmParams(), scheme, min_bits=2000)
