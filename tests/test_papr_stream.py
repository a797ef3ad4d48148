"""The streamed PAPR cell: one pass over chunked bit draws, the closed-form
clip level (sigma = sqrt((N+1)/(N*L)), the RMS of the OFDM signal), and
memory that does not grow with n_symbols."""
import math
import tracemalloc

import numpy as np
import pytest

from paprsim import (
    SCHEME_NAMES,
    ExperimentSpec,
    clip_baseband,
    composed_filter,
    ModScheme,
    OfdmParams,
    add_cyclic_prefix,
    ofdm_modulate,
    oversample_extend,
    run_papr_experiment,
    upconvert,
)
from paprsim import harness
from paprsim.clip_filter import _clip_factor, _composed_fold, _filter_forward, _filter_inverse
from paprsim.harness import (
    _chunk_buffers,
    _chunk_frames,
    _clip_level,
    _papr_chunk,
    _random_bits,
    experiment_hpf,
)
from paprsim.metrics import _papr_db_rows

from oracles import (
    ORACLE_PLANS,
    analytic_envelope,
    baseband_frames,
    batch_papr_cell,
    papr_db_max_mean,
)
from units import papr_cell_vectors

# 1037 symbols leave a partial last chunk on every plan: 8 x 128 + 13 on the
# reference plan, 5 x 204 + 17 on nyquist_edge, 7 x 146 + 15 on high_carrier.
N_SYMBOLS = 1037
STREAM_CASES = [("reference", "16qam", 0.8), ("nyquist_edge", "8psk", 1.2),
                ("high_carrier", "32qam", 1.0)]


@pytest.mark.parametrize("plan, scheme_name, cr", STREAM_CASES, ids=[c[0] for c in STREAM_CASES])
def test_streamed_cell_equals_the_whole_batch_cell(monkeypatch, plan, scheme_name, cr):
    params, _ = ORACLE_PLANS[plan]
    scheme = ModScheme.from_name(scheme_name)
    spec = ExperimentSpec(params=params, schemes=(scheme,), cr_values=(cr,),
                          n_symbols=N_SYMBOLS, ccdf_read_point=1e-2)
    assert N_SYMBOLS % _chunk_frames(params.n_oversampled)
    hpf = experiment_hpf(spec)
    streamed, values = papr_cell_vectors(monkeypatch, spec, scheme, cr)
    batch = batch_papr_cell(spec, scheme, cr, np.random.default_rng([spec.seed, 0, 0]), hpf)

    for curve, got, want in zip(streamed, values, batch):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        oracle = harness.estimate_ccdf(want, harness.CCDF_THRESHOLDS_DB)
        assert np.array_equal(curve.prob_exceed, oracle.prob_exceed)
        assert curve.sample_count == N_SYMBOLS


@pytest.mark.parametrize("plan", ["nyquist_edge", "dc_edge"])
def test_unclipped_papr_on_an_edge_plan_is_that_of_the_analytic_envelope(monkeypatch, plan):
    # A band edge on DC or Nyquist is its own image, so the envelope of an
    # unclipped symbol is not |x| there (README section 7): on 16-QAM the
    # two PAPR reads differ by over 0.2 dB. The streamed read must be the
    # literal analytic envelope's of upconvert(x), on every chunk, and
    # envelope_magnitude's of x bit for bit: a chunk reads it from x before
    # the clip and the forward half overwrite the block. Read from the
    # forward half's x c divided back by c, 302 (nyquist_edge) and 241
    # (dc_edge) of the 1037 values differed in their last bits.
    params, edges = ORACLE_PLANS[plan]
    scheme = ModScheme.from_name("16qam")
    spec = ExperimentSpec(params=params, schemes=(scheme,), cr_values=(1.2,),
                          n_symbols=N_SYMBOLS, ccdf_read_point=1e-2,
                          hpf_stop_edge=edges.get("stop_edge"),
                          hpf_pass_edge=edges.get("pass_edge"))
    _, (_, unclipped) = papr_cell_vectors(monkeypatch, spec, scheme, 1.2)
    bits = _random_bits(np.random.default_rng([spec.seed, 0, 0]), N_SYMBOLS,
                        params.n_subcarriers * scheme.bits_per_symbol)
    baseband = baseband_frames(bits, scheme, params)
    want = papr_db_max_mean(analytic_envelope(upconvert(baseband, params), params))
    np.testing.assert_allclose(unclipped, want, rtol=0, atol=1e-12)
    assert np.max(np.abs(want - papr_db_max_mean(baseband))) > 0.2
    envelope = harness.envelope_magnitude(baseband, params)
    assert np.array_equal(unclipped, _papr_db_rows(envelope**2))


@pytest.mark.parametrize("plan", sorted(ORACLE_PLANS))
def test_papr_chunk_runs_two_inverse_and_one_real_transform(monkeypatch, plan):
    # One chunk: the modulator's IFFT, the filter's real FFT of the clipped
    # passband and its IFFT to the envelope. The clip stage runs once, on
    # |x| of the unclipped baseband, and writes only its factor. On every
    # plan the unclipped PAPR is the np.max / np.mean form of the
    # envelope's squares bit for bit.
    params, edges = ORACLE_PLANS[plan]
    scheme = ModScheme.from_name("16qam")
    spec = ExperimentSpec(params=params, n_symbols=1000, ccdf_read_point=1e-2,
                          hpf_stop_edge=edges.get("stop_edge"), hpf_pass_edge=edges.get("pass_edge"))
    hpf = experiment_hpf(spec)
    amplitude = _clip_level(params, 1.2)
    bits = _random_bits(np.random.default_rng(47), 6, params.n_subcarriers * 4)
    baseband = baseband_frames(bits, scheme, params)
    calls = {"fft": 0, "ifft": 0, "rfft": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    clips = []

    def clip_stage(samples, amplitude, *, out=None):
        kept = samples.copy()
        factor = _clip_factor(samples, amplitude, out=out)
        clips.append((kept, samples.copy(), factor.copy()))
        return factor

    monkeypatch.setattr(harness, "_clip_magnitude_rows", clip_stage)
    unclipped, processed = np.empty(6), np.empty(6)
    _papr_chunk(bits, scheme, params, amplitude, _composed_fold(params, hpf),
                _chunk_buffers(6, params), unclipped, processed)
    monkeypatch.undo()
    assert calls == {"fft": 0, "ifft": 2, "rfft": 1}
    ((before, after, factor),) = clips
    assert np.array_equal(before, np.abs(baseband)) and np.array_equal(after, before)
    assert np.array_equal(factor, amplitude / np.maximum(np.abs(baseband), amplitude))
    # The unclipped envelope is |x| but on an edge plan (README section 7).
    envelope = harness.envelope_magnitude(baseband, params)
    assert np.array_equal(unclipped, papr_db_max_mean(envelope))
    want = papr_db_max_mean(harness.envelope_magnitude(
        composed_filter(clip_baseband(baseband, amplitude), params, hpf), params))
    np.testing.assert_allclose(processed, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("plan", sorted(ORACLE_PLANS))
def test_filter_with_the_clip_factor_equals_the_filter_of_the_clipped_block(plan):
    params, edges = ORACLE_PLANS[plan]
    spec = ExperimentSpec(params=params, hpf_stop_edge=edges.get("stop_edge"),
                          hpf_pass_edge=edges.get("pass_edge"))
    hpf = experiment_hpf(spec)
    rng = np.random.default_rng(48)
    bits = _random_bits(rng, 5, params.n_subcarriers * 3)
    baseband = baseband_frames(bits, ModScheme.from_name("8psk"), params)
    amplitude = _clip_level(params, 0.9)
    want = composed_filter(clip_baseband(baseband, amplitude), params, hpf)
    factor = _clip_factor(np.abs(baseband), amplitude)
    out = baseband.copy()
    got = _filter_inverse(_filter_forward(out, _composed_fold(params, hpf), factor=factor), out)
    assert np.max(np.abs(got - want)) < 1e-14


@pytest.mark.parametrize("bits_per_symbol", [2, 3, 4, 5])
@pytest.mark.parametrize("n_subcarriers, n_frames, chunk", [(128, 1037, 128), (6, 29, 2)],
                         ids=["reference_chunk", "n_2_mod_4"])
def test_chunked_bit_draws_equal_one_draw(bits_per_symbol, n_subcarriers, n_frames, chunk):
    # numpy draws a bounded uint8 in {0, 1} from one byte of a 32-bit word
    # and starts each call on a fresh word, so chunks of a multiple of 4
    # bits reproduce the single draw; the last chunk here is partial.
    bits_per_frame = n_subcarriers * bits_per_symbol
    assert n_frames % chunk and (chunk * bits_per_frame) % 4 == 0
    one = _random_bits(np.random.default_rng(41), n_frames, bits_per_frame)
    rng = np.random.default_rng(41)
    parts = [_random_bits(rng, min(chunk, n_frames - start), bits_per_frame)
             for start in range(0, n_frames, chunk)]
    assert np.array_equal(np.concatenate(parts), one)


def test_chunk_frames_fit_the_budget_and_stay_even():
    assert _chunk_frames(1024) == 128
    assert _chunk_frames(640) == 204
    assert _chunk_frames(1024 + 256) == 102
    assert _chunk_frames(1000) == 130  # 131 frames fit; an odd count is rounded down
    for block_len in (1, 7, 640, 896, 1000, 1280, 4096 + 1024, 2**17, 2**20):
        frames = _chunk_frames(block_len)
        assert frames % 2 == 0 and frames >= 2
        assert frames == 2 or frames * block_len <= harness._CHUNK_SAMPLES


SIGMA_PLANS = ("reference", "nyquist_edge", "high_carrier")
CONSTANT_MODULUS = ("qpsk", "qam", "8psk", "16psk", "32psk")


def frame_power(params, scheme, cp, n_frames=1000, seed=43):
    """Mean power of each unclipped transmitted frame (prefix included when
    cp), for random bits."""
    rng = np.random.default_rng(seed)
    bits = _random_bits(rng, n_frames, params.n_subcarriers * scheme.bits_per_symbol)
    baseband = add_cyclic_prefix(baseband_frames(bits, scheme, params), params.cp_oversampled * cp)
    return np.mean(np.square(baseband.real) + np.square(baseband.imag), axis=1)


@pytest.mark.parametrize("cp", [False, True], ids=["symbol", "prefixed"])
@pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
@pytest.mark.parametrize("plan", SIGMA_PLANS)
def test_closed_form_sigma_is_the_mean_power_of_unclipped_frames(plan, scheme_name, cp):
    # sigma^2 = (N+1)/(N*L) against the mean over frames of each frame's
    # mean power, within 4 SEs of that mean. Frames of a constant-modulus
    # table without prefix all have power sigma^2, so their SE is round-off.
    params, _ = ORACLE_PLANS[plan]
    power = frame_power(params, ModScheme.from_name(scheme_name), cp)
    sigma2 = _clip_level(params, 1.0) ** 2
    se = power.std(ddof=1) / math.sqrt(power.size)
    assert abs(power.mean() - sigma2) <= 4.0 * se + 1e-12 * sigma2, (power.mean(), sigma2, se)


@pytest.mark.parametrize("scheme_name", CONSTANT_MODULUS)
@pytest.mark.parametrize("plan", SIGMA_PLANS)
def test_closed_form_sigma_is_exact_for_constant_modulus_tables(plan, scheme_name):
    params, _ = ORACLE_PLANS[plan]
    power = frame_power(params, ModScheme.from_name(scheme_name), cp=False, n_frames=50)
    np.testing.assert_allclose(power, _clip_level(params, 1.0) ** 2, rtol=1e-12, atol=0)


def test_clip_level_is_cr_times_sigma():
    params = ORACLE_PLANS["reference"][0]
    assert _clip_level(params, 1.0) == math.sqrt(129 / 1024)
    assert _clip_level(params, 1.4) == 1.4 * math.sqrt(129 / 1024)


def test_parseval_energy_counts_the_band_edge_bin_twice():
    # The N + 1 of sigma^2 = (N+1)/(N*L): the extended frame sends X[N/2] at
    # both band edges, and the unitary modulator keeps the frame's energy.
    params = ORACLE_PLANS["reference"][0]
    n = params.n_subcarriers
    frames = np.zeros((2, n), dtype=complex)
    frames[:, n // 2] = [3.0 - 4.0j, 1.0j]
    frames[1, 1] = 2.0
    block = ofdm_modulate(oversample_extend(frames, params.oversample), params)
    assert np.sum(np.abs(block) ** 2) == pytest.approx(2 * (25.0 + 1.0) + 4.0, rel=1e-13)


def _papr_peak_bytes(n_symbols: int) -> int:
    spec = ExperimentSpec(params=OfdmParams(), schemes=(ModScheme.from_name("qpsk"),),
                          cr_values=(1.0,), n_symbols=n_symbols, ccdf_read_point=1e-2)
    tracemalloc.start()
    try:
        run_papr_experiment(spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_papr_cell_memory_is_flat_in_n_symbols():
    _papr_peak_bytes(1000)  # caches filled once, outside the comparison
    small, large = _papr_peak_bytes(2000), _papr_peak_bytes(8000)
    assert abs(large - small) <= 0.1 * small, (small, large)
