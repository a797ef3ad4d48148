"""The streamed PAPR cell: one pass over chunked bit draws, the closed-form
clip level (sigma = sqrt((N+1)/(N*L)), the RMS of the OFDM signal), and
memory that does not grow with n_symbols."""
import dataclasses
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
    carrier_frames,
    papr_db_max_mean,
)
from units import noise_free_unit, papr_stream, papr_unit, spy_chunk_buffers

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
    ((clipped,), unclipped), ((processed,), unclipped_values) = papr_unit(spec, scheme)
    batch = batch_papr_cell(spec, scheme, cr, papr_stream(spec, scheme), hpf)

    for curve, got, want in zip((clipped, unclipped), (processed, unclipped_values), batch):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        oracle = harness.estimate_ccdf(want, harness.CCDF_THRESHOLDS_DB)
        assert np.array_equal(curve.prob_exceed, oracle.prob_exceed)
        assert curve.sample_count == N_SYMBOLS


@pytest.mark.parametrize("plan", ["nyquist_edge", "dc_edge"])
def test_unclipped_papr_on_an_edge_plan_is_that_of_the_analytic_envelope(monkeypatch, plan):
    # A band edge on DC or Nyquist is its own image, so the envelope of an
    # unclipped symbol is not |x| there (README section 7): on 16-QAM the
    # two PAPR reads differ by over 0.2 dB. The streamed read must be the
    # literal analytic envelope's of upconvert(x), on every chunk, and bit
    # for bit the envelope of x c, the modulator's carrier-placed block,
    # read with the edge tone at its own bin (harness._envelope): a chunk
    # reads it before the last level's inverse half overwrites the block.
    params, edges = ORACLE_PLANS[plan]
    scheme = ModScheme.from_name("16qam")
    spec = ExperimentSpec(params=params, schemes=(scheme,), cr_values=(1.2,),
                          n_symbols=N_SYMBOLS, ccdf_read_point=1e-2,
                          hpf_stop_edge=edges.get("stop_edge"),
                          hpf_pass_edge=edges.get("pass_edge"))
    _, (_, unclipped) = papr_unit(spec, scheme)
    bits = _random_bits(papr_stream(spec, scheme), N_SYMBOLS,
                        params.n_subcarriers * scheme.bits_per_symbol)
    baseband = baseband_frames(bits, scheme, params)
    want = papr_db_max_mean(analytic_envelope(upconvert(baseband, params), params))
    np.testing.assert_allclose(unclipped, want, rtol=0, atol=1e-12)
    assert np.max(np.abs(want - papr_db_max_mean(baseband))) > 0.2
    envelope = harness._envelope(carrier_frames(bits, scheme, params), params, 0)
    assert np.array_equal(unclipped, _papr_db_rows(envelope**2))


@pytest.mark.parametrize("plan", sorted(ORACLE_PLANS))
def test_papr_chunk_runs_two_inverse_and_one_real_transform(monkeypatch, plan):
    # One chunk: the modulator's IFFT, the filter's real FFT of the clipped
    # passband and its IFFT to the envelope. The clip stage runs once, on
    # |x c| of the modulator's carrier-placed block, and writes only its
    # factor. On every plan the unclipped PAPR is the np.max / np.mean form
    # of the squares of that block's envelope bit for bit.
    params, edges = ORACLE_PLANS[plan]
    scheme = ModScheme.from_name("16qam")
    spec = ExperimentSpec(params=params, n_symbols=1000, ccdf_read_point=1e-2,
                          hpf_stop_edge=edges.get("stop_edge"), hpf_pass_edge=edges.get("pass_edge"))
    hpf = experiment_hpf(spec)
    amplitude = _clip_level(params, 1.2)
    bits = _random_bits(np.random.default_rng(47), 6, params.n_subcarriers * 4)
    baseband = baseband_frames(bits, scheme, params)
    shifted = carrier_frames(bits, scheme, params)
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
    _papr_chunk(bits, scheme, params, (amplitude,), _composed_fold(params, hpf),
                _chunk_buffers(6, params), unclipped, processed)
    monkeypatch.undo()
    assert calls == {"fft": 0, "ifft": 2, "rfft": 1}
    ((before, after, factor),) = clips
    assert np.array_equal(before, np.abs(shifted)) and np.array_equal(after, before)
    assert np.array_equal(factor, amplitude / np.maximum(np.abs(shifted), amplitude))
    # The unclipped envelope is |x| but on an edge plan (README section 7).
    envelope = harness._envelope(shifted, params, 0)
    assert np.array_equal(unclipped, papr_db_max_mean(envelope))
    want = papr_db_max_mean(harness.envelope_magnitude(
        composed_filter(clip_baseband(baseband, amplitude), params, hpf), params))
    np.testing.assert_allclose(processed, want, rtol=0, atol=1e-12)


SHARED_CRS = (0.8, 1.2, 1.6)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("plan", ["reference", "dc_edge", "nyquist_edge"])
def test_each_cr_of_a_shared_pass_equals_a_one_cr_pass(monkeypatch, plan, workers):
    # A scheme's CRs clip one baseband: each CR's vectors must be those of a
    # spec with that CR alone, on the same stream, bit for bit, also where
    # the unclipped envelope is not |x| (README section 7).
    params, edges = ORACLE_PLANS[plan]
    scheme = ModScheme.from_name("16qam")
    spec = ExperimentSpec(params=params, schemes=(scheme,), cr_values=SHARED_CRS,
                          n_symbols=N_SYMBOLS, ccdf_read_point=1e-2,
                          hpf_stop_edge=edges.get("stop_edge"), hpf_pass_edge=edges.get("pass_edge"))
    monkeypatch.setattr(harness, "_worker_count", lambda: workers)
    (clipped, unclipped), (processed, unclipped_values) = papr_unit(spec, scheme)
    assert len(clipped) == len(processed) == len(SHARED_CRS)
    for cr, curve, values in zip(SHARED_CRS, clipped, processed):
        ((alone_curve,), _), ((alone,), alone_unclipped) = papr_unit(
            dataclasses.replace(spec, cr_values=(cr,)), scheme)
        assert np.array_equal(values, alone), cr
        assert np.array_equal(unclipped_values, alone_unclipped), cr
        assert np.array_equal(curve.prob_exceed, alone_curve.prob_exceed), cr
    # The levels differ, so no level read another's envelope.
    assert not np.array_equal(processed[0], processed[-1])


def test_a_unit_modulates_each_chunk_once_for_all_its_crs(monkeypatch):
    # Draw, map, extend and modulate run once a chunk; the clip, the forward
    # half's real FFT and the envelope run once a chunk per CR.
    spec = ExperimentSpec(schemes=(ModScheme.from_name("8psk"),), cr_values=SHARED_CRS,
                          n_symbols=N_SYMBOLS, ccdf_read_point=1e-2)
    monkeypatch.setattr(harness, "_worker_count", lambda: 1)
    calls = {name: 0 for name in ("_random_bits", "_map_rows", "_extend_rows", "_modulate_rows",
                                  "_clip_magnitude_rows", "_composed_rows")}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(harness, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    run_papr_experiment(spec)
    chunks = -(-N_SYMBOLS // _chunk_frames(spec.params.n_oversampled))
    assert calls == {"_random_bits": chunks, "_map_rows": chunks, "_extend_rows": chunks,
                     "_modulate_rows": chunks, "_clip_magnitude_rows": 3 * chunks,
                     "_composed_rows": 3 * chunks}


@pytest.mark.parametrize("experiment", ["papr_unit", "clipped_ber_unit"])
def test_the_forward_half_reads_the_real_view_of_the_block(monkeypatch, experiment):
    # The modulator leaves x c in the block, so no chunk forms a complex
    # product of a whole block: the forward half gets the block's real
    # view, Re(x c), the passband itself.
    params = ORACLE_PLANS["high_carrier"][0]
    spec = ExperimentSpec(params=params, schemes=(ModScheme.from_name("8qam"),),
                          cr_values=SHARED_CRS, n_symbols=N_SYMBOLS, ccdf_read_point=1e-2)
    monkeypatch.setattr(harness, "_worker_count", lambda: 1)
    buffers, seen, forward = spy_chunk_buffers(monkeypatch), [], harness._composed_rows

    def spy(samples, fold, *, factor=None):
        seen.append(samples)
        return forward(samples, fold, factor=factor)

    monkeypatch.setattr(harness, "_composed_rows", spy)
    if experiment == "papr_unit":
        papr_unit(spec, spec.schemes[0])
    else:
        noise_free_unit(params, spec.schemes[0], 1.2, experiment_hpf(spec), 20_000, 3)
    ((_, (_, block, _)),) = buffers
    assert seen
    for samples in seen:
        assert samples.dtype == float and samples.strides[-1] == 16
        assert samples.__array_interface__["data"][0] == block.__array_interface__["data"][0]


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
    # The chunk's form: the passband is the real view of the carrier-placed
    # block x c, and the inverse half overwrites the block.
    shifted = carrier_frames(bits, ModScheme.from_name("8psk"), params)
    factor = _clip_factor(np.abs(shifted), amplitude)
    fold = _composed_fold(params, hpf)
    got = _filter_inverse(_filter_forward(shifted.real, fold, factor=factor), shifted)
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


@pytest.mark.parametrize("seed", [0, 1, 41, 2014])
@pytest.mark.parametrize("n_subcarriers, bits_per_symbol", [(6, 3), (6, 5), (10, 3), (128, 5)])
def test_bit_draws_equal_numpy_s_bounded_draw_across_buffered_half_words(
        seed, n_subcarriers, bits_per_symbol):
    # Bits come from the raw 64-bit words; numpy's integers(0, 2, uint8)
    # is the reference. With N = 2 mod 4 and k odd, a 2-frame chunk is 4
    # mod 8 bits and leaves half a word buffered for the next chunk; 29
    # frames in 2-frame chunks end on an odd chunk of one frame.
    bits_per_frame = n_subcarriers * bits_per_symbol
    want = np.random.default_rng(seed).integers(0, 2, (29, bits_per_frame), dtype=np.uint8)
    assert np.array_equal(_random_bits(np.random.default_rng(seed), 29, bits_per_frame), want)
    rng, parts, buffered = np.random.default_rng(seed), [], []
    for start in range(0, 29, 2):
        buffered.append(rng.bit_generator.state["has_uint32"])
        parts.append(_random_bits(rng, min(2, 29 - start), bits_per_frame))
    assert np.array_equal(np.concatenate(parts), want)
    assert any(buffered) == (n_subcarriers % 4 == 2)


@pytest.mark.parametrize("sizes", [(4, 3), (4, 1, 9), (12, 2, 17), (1, 5, 8, 7), (20, 0, 36)])
def test_each_bit_draw_equals_numpy_s_draw_of_its_size(sizes):
    # Any run of draws, also of sizes that are not whole words or that end
    # inside a buffered half word, takes the bits numpy's draws would.
    rng, reference = np.random.default_rng(43), np.random.default_rng(43)
    for size in sizes:
        got = _random_bits(rng, 1, size)
        assert np.array_equal(got, reference.integers(0, 2, (1, size), dtype=np.uint8)), sizes
        assert got.dtype == np.uint8 and got.flags.c_contiguous
    # The generators agree on what the next draw reads: the 128-bit state
    # and a buffered half word, if any (a spent one is never read again).
    got, want = rng.bit_generator.state, reference.bit_generator.state
    assert got["state"] == want["state"] and got["has_uint32"] == want["has_uint32"]
    assert not got["has_uint32"] or got["uinteger"] == want["uinteger"]


def test_the_bits_of_one_seed_are_pinned():
    # A literal, so that a numpy change to Generator.integers or to PCG64
    # cannot move the reference of the tests above along with the draw.
    want = "1100100111111011001101101000011111010111"
    assert "".join(map(str, _random_bits(np.random.default_rng(2014), 1, 40)[0])) == want


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


def _papr_peak_bytes(n_symbols: int, cr_values=(1.0,)) -> int:
    spec = ExperimentSpec(params=OfdmParams(), schemes=(ModScheme.from_name("qpsk"),),
                          cr_values=cr_values, n_symbols=n_symbols, ccdf_read_point=1e-2)
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


#: The harness's names for the stages a PAPR chunk calls.
CHUNK_STAGES = ("_random_bits", "_map_rows", "_extend_rows", "_modulate_rows",
                "_clip_magnitude_rows", "_composed_rows", "_filter_inverse",
                "envelope_magnitude", "_papr_db_rows")


def _papr_array_peak(monkeypatch, cr_values) -> int:
    """The most bytes numpy's arrays held at the return of any chunk stage
    (``CHUNK_STAGES``) of a QPSK PAPR call of 2000 symbols: the traces of
    numpy's tracemalloc domain, its data buffers, and no Python object."""
    spec = ExperimentSpec(params=OfdmParams(), schemes=(ModScheme.from_name("qpsk"),),
                          cr_values=cr_values, n_symbols=2000, ccdf_read_point=1e-2)
    arrays = tracemalloc.DomainFilter(inclusive=True, domain=np.lib.tracemalloc_domain)
    peak = [0]

    def measured(stage):
        def wrapper(*args, **kwargs):
            result = stage(*args, **kwargs)
            traces = tracemalloc.take_snapshot().filter_traces([arrays]).traces
            peak[0] = max(peak[0], sum(trace.size for trace in traces))
            return result
        return wrapper

    with monkeypatch.context() as patch:
        for name in CHUNK_STAGES:
            patch.setattr(harness, name, measured(getattr(harness, name)))
        tracemalloc.start()
        try:
            run_papr_experiment(spec)
        finally:
            tracemalloc.stop()
    return peak[0]


@pytest.mark.parametrize("n_crs", [2, 5])
def test_each_extra_cr_adds_only_the_spare_and_its_vector_to_the_peak(monkeypatch, n_crs):
    # One thread: the spare widens its scratch by half a chunk of 128
    # blocks of 1024 complex samples, 1 MiB. Each extra CR keeps one
    # float64 PAPR vector of n_symbols, and nothing else of numpy's.
    monkeypatch.setattr(harness, "_worker_count", lambda: 1)
    crs = (0.8, 1.0, 1.2, 1.4, 1.6)
    _papr_array_peak(monkeypatch, crs[:1])  # caches filled once, outside the comparison
    one = _papr_array_peak(monkeypatch, crs[:1])
    many = _papr_array_peak(monkeypatch, crs[:n_crs])
    spare = _chunk_frames(OfdmParams().n_oversampled) * OfdmParams().n_oversampled * 8
    assert spare <= many - one <= spare + (n_crs - 1) * 2000 * 8, (one, many)
