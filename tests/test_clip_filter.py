import numpy as np
import pytest

from paprsim import (
    ConfigError,
    FirDesignSpec,
    ModScheme,
    OfdmParams,
    ShapeError,
    add_cyclic_prefix,
    band_gains,
    clip_baseband,
    composed_filter,
    default_hpf_spec,
    design_equiripple,
    experiment_hpf,
    map_bits,
    ofdm_modulate,
    oversample_extend,
    papr_db,
    upconvert,
)
from paprsim.harness import ExperimentSpec, _clip_level, envelope_magnitude

from oracles import (
    ORACLE_PLANS,
    analytic_envelope,
    baseband_frames,
    clip_passband,
    gaussian_tail,
    passband_clip_filter_blocks,
    passband_composed_filter,
    rms,
    transmit_blocks,
)

PARAMS = OfdmParams()
HPF = experiment_hpf(ExperimentSpec())
ALLPASS = design_equiripple(FirDesignSpec(3, ((0.0, 0.5),), (1.0,), (1.0,)))


def ofdm_baseband(rng, scheme=ModScheme("psk", 4), params=PARAMS, batch=()):
    bits = rng.integers(0, 2, batch + (params.n_subcarriers * scheme.bits_per_symbol,))
    return ofdm_modulate(oversample_extend(map_bits(bits, scheme), params.oversample), params)


def ofdm_passband(rng, scheme=ModScheme("psk", 4)):
    return upconvert(ofdm_baseband(rng, scheme), PARAMS)


def out_of_band_ratio(passband):
    """Out-of-band over in-band energy of real passband blocks."""
    spectrum = np.fft.fft(passband, axis=-1)
    in_band = band_gains(PARAMS, HPF) != 0
    oob = np.sum(np.abs(spectrum[..., ~in_band]) ** 2)
    return oob / np.sum(np.abs(spectrum[..., in_band]) ** 2)


def test_clip_amplitude_must_be_positive():
    for clip in (clip_passband, clip_baseband):
        for amplitude in (0.0, -1.0):
            with pytest.raises(ConfigError):
                clip(np.ones(4), amplitude)


@pytest.mark.parametrize("amplitude", [np.nan, np.inf])
def test_clip_baseband_refuses_a_non_finite_amplitude(amplitude):
    # A / max(|x|, A) is NaN for A = NaN or inf, so every output sample
    # would be NaN.
    with pytest.raises(ConfigError, match="positive and finite"):
        clip_baseband(np.ones(4, dtype=complex), amplitude)


def test_rms_examples():
    assert rms(np.full(10, 3.0)) == pytest.approx(3.0)
    assert rms(np.array([1.0, -1.0, 1.0, -1.0])) == pytest.approx(1.0)
    with pytest.raises(ShapeError):
        rms(np.array([]))


def test_rms_passband_of_unit_power_baseband():
    # sqrt(2) convention keeps passband RMS equal to the baseband RMS.
    rng = np.random.default_rng(1)
    ratio = []
    for _ in range(300):
        bits = rng.integers(0, 2, PARAMS.n_subcarriers * 2)
        bb = ofdm_modulate(oversample_extend(map_bits(bits, ModScheme("psk", 4)),
                                             PARAMS.oversample), PARAMS)
        ratio.append(rms(upconvert(bb / rms(bb), PARAMS)))
    assert abs(np.mean(ratio) - 1.0) < 0.02


def test_clip_passband_hand_example():
    got = clip_passband(np.array([-5.0, -1.0, 0.0, 2.0, 9.0]), 2.0)
    assert np.array_equal(got, np.array([-2.0, -1.0, 0.0, 2.0, 2.0]))


def test_clip_passband_identity_when_loose():
    rng = np.random.default_rng(2)
    sig = rng.normal(size=1000)
    got = clip_passband(sig, float(np.max(np.abs(sig))) + 1.0)
    assert np.array_equal(got, sig)


def test_clip_passband_hard_bound_and_idempotence():
    rng = np.random.default_rng(3)
    once = clip_passband(rng.normal(size=100_000), 0.8)
    twice = clip_passband(once, 0.8)
    assert np.max(np.abs(once)) <= 0.8
    assert np.array_equal(once, twice)


def test_clip_passband_gaussian_fraction():
    # At CR = 1 the clipped fraction of a Gaussian-like envelope is 2 Q(1).
    rng = np.random.default_rng(4)
    samples = np.concatenate([ofdm_passband(rng) for _ in range(200)])
    sigma = float(np.sqrt(np.mean(samples**2)))
    clipped = np.mean(np.abs(samples) >= sigma)
    assert clipped == pytest.approx(2.0 * gaussian_tail(1.0), abs=0.02)


def test_clip_baseband_examples():
    got = clip_baseband(np.array([3 + 4j]), 2.5)
    assert np.allclose(got, np.array([1.5 + 2j]), atol=1e-12)
    inside = np.array([0.1 + 0.2j, -0.3j])
    assert np.array_equal(clip_baseband(inside, 1.0), inside)


def test_clip_baseband_clips_integer_samples_as_floats():
    # Integer samples are cast, not refused: the clip's factor is real.
    got = clip_baseband(np.array([3, -4, 1]), 2.0)
    assert got.dtype == np.float64 and np.array_equal(got, [2.0, -2.0, 1.0])


def test_clip_baseband_is_bit_identical_to_the_where_form():
    # One scale pass, x * (A / max(|x|, A)), against the select-and-divide
    # form it replaced: zeros, samples exactly on the clip level, and a batch.
    def where_form(samples, amplitude):
        mag = np.abs(samples)
        return np.where(mag > amplitude, samples * (amplitude / np.where(mag == 0, 1.0, mag)),
                        samples)

    rng = np.random.default_rng(12)
    batch = rng.normal(size=(3, 4, 512)) + 1j * rng.normal(size=(3, 4, 512))
    batch[0, 0, :8] = 0
    batch[1, 2, :4] = [0.7, -0.7j, 0.7 * np.exp(0.3j), 0.7 * np.exp(-2.1j)]
    batch[2, 3, :4] = [0.7 * (1 + 1e-16), 1e-300, 1e-300j, -0.0]
    for amplitude in (0.7, 1e-3, 5.0):
        got = clip_baseband(batch, amplitude)
        assert np.array_equal(got, where_form(batch, amplitude)), amplitude
    assert np.array_equal(clip_baseband(batch[1, 2, :4], 0.7), batch[1, 2, :4])


def test_clip_baseband_magnitude_bound():
    rng = np.random.default_rng(5)
    got = clip_baseband(rng.normal(size=100_000) + 1j * rng.normal(size=100_000), 0.7)
    assert np.max(np.abs(got)) <= 0.7 * (1 + 1e-12)


def test_papr_monotone_in_clip_level():
    rng = np.random.default_rng(6)
    for _ in range(50):
        sig = ofdm_passband(rng)
        sigma = rms(sig)
        low = papr_db(clip_passband(sig, 0.8 * sigma))
        high = papr_db(clip_passband(sig, 1.4 * sigma))
        assert low <= high + 1e-9


def test_composed_filter_identity_for_inband_signal():
    rng = np.random.default_rng(7)
    bb = ofdm_baseband(rng)
    out = composed_filter(bb, PARAMS, ALLPASS)
    assert np.max(np.abs(out - bb)) < 1e-9
    sig = upconvert(bb, PARAMS)
    assert np.max(np.abs(passband_composed_filter(sig, PARAMS, ALLPASS) - sig)) < 1e-9


def test_composed_filter_zeroes_out_of_band_input():
    # A real 0.5 MHz tone below the band, and the baseband tone at -1.5 MHz
    # whose upconversion it is.
    m = np.arange(PARAMS.n_oversampled)
    tone = np.cos(2 * np.pi * 0.5e6 * m / PARAMS.sample_hz)
    baseband_tone = np.exp(-2j * np.pi * 1.5e6 * m / PARAMS.sample_hz) / np.sqrt(2.0)
    assert np.max(np.abs(upconvert(baseband_tone, PARAMS) - tone)) < 1e-12
    assert np.max(np.abs(passband_composed_filter(tone, PARAMS, ALLPASS))) < 1e-12
    assert np.max(np.abs(composed_filter(baseband_tone, PARAMS, ALLPASS))) < 1e-12


def test_composed_filter_out_of_band_suppression():
    rng = np.random.default_rng(8)
    sig = ofdm_passband(rng)
    clipped = clip_passband(sig, 1.2 * rms(sig))
    assert out_of_band_ratio(passband_composed_filter(clipped, PARAMS, HPF)) < 1e-10  # -100 dB
    bb = ofdm_baseband(rng)
    filtered = composed_filter(clip_baseband(bb, 1.2 * rms(bb)), PARAMS, HPF)
    assert out_of_band_ratio(upconvert(filtered, PARAMS)) < 1e-10


def test_composed_filter_output_real():
    # band_gains is real and even, so the passband filter keeps conjugate
    # symmetry and its output is real.
    rng = np.random.default_rng(9)
    sig = ofdm_passband(rng)
    clipped = clip_passband(sig, rms(sig))
    gains = band_gains(PARAMS, HPF)
    full = np.fft.ifft(np.fft.fft(clipped) * gains)
    assert np.max(np.abs(full.imag)) < 1e-9
    out = passband_composed_filter(clipped, PARAMS, HPF)
    assert out.dtype == np.float64


def test_composed_filter_validates_length():
    with pytest.raises(ShapeError):
        composed_filter(np.zeros(100), PARAMS, HPF)


def test_composed_filter_refuses_passband_input():
    # Real input is a passband block (the old call composed_filter(upconvert(c)));
    # folding it as baseband would return plausible wrong numbers.
    rng = np.random.default_rng(13)
    with pytest.raises(ShapeError, match=r"baseband.*not upconvert"):
        composed_filter(ofdm_passband(rng), PARAMS, HPF)
    with pytest.raises(ShapeError, match="baseband"):
        envelope_magnitude(ofdm_passband(rng), PARAMS)


@pytest.mark.parametrize("plan", sorted(ORACLE_PLANS))
def test_baseband_fold_matches_passband_oracle(plan):
    params, edges = ORACLE_PLANS[plan]
    hpf = design_equiripple(default_hpf_spec(params, **edges))
    rng = np.random.default_rng(14)
    scheme = ModScheme("qam", 16)
    bb = ofdm_baseband(rng, scheme, params, batch=(2, 3))
    amplitude = 0.9 * rms(bb)
    filtered = composed_filter(clip_baseband(bb, amplitude), params, hpf)
    assert filtered.shape == (2, 3, params.n_oversampled)
    passband = passband_composed_filter(upconvert(clip_baseband(bb, amplitude), params),
                                        params, hpf)
    assert np.max(np.abs(upconvert(filtered, params) - passband)) < 1e-12
    envelope = envelope_magnitude(filtered, params)
    assert envelope.shape == (2, 3, params.n_oversampled)
    want_envelope = analytic_envelope(passband, params)
    assert np.max(np.abs(envelope - want_envelope)) < 1e-12
    assert np.max(np.abs(papr_db(envelope) - papr_db(want_envelope))) < 1e-12

    # The BER unit's transmission: clip, filter, prefix and upconvert.
    bits = rng.integers(0, 2, (40, params.n_subcarriers * scheme.bits_per_symbol), dtype=np.uint8)
    got = transmit_blocks(bits, scheme, params, 0.9, hpf)
    blocks = add_cyclic_prefix(baseband_frames(bits, scheme, params), params.cp_oversampled)
    want = passband_clip_filter_blocks(blocks, _clip_level(params, 0.9), params, hpf)
    assert got.shape == want.shape == (40, params.n_oversampled + params.cp_oversampled)
    assert np.max(np.abs(got - want)) < 1e-12


def test_envelope_of_inband_symbol_is_its_baseband_magnitude():
    # envelope_magnitude keeps the same occupied bins as band_gains; for an
    # unclipped symbol that is the whole signal, so the envelope is |x|,
    # and so is the analytic-signal envelope of its passband.
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2, (4, PARAMS.n_subcarriers * 2), dtype=np.uint8)
    bb = ofdm_modulate(oversample_extend(map_bits(bits, ModScheme("psk", 4)),
                                         PARAMS.oversample), PARAMS)
    env = envelope_magnitude(bb, PARAMS)
    assert np.max(np.abs(env - np.abs(bb))) < 1e-12
    assert np.max(np.abs(analytic_envelope(upconvert(bb, PARAMS), PARAMS) - np.abs(bb))) < 1e-12
    assert np.array_equal(np.flatnonzero(band_gains(PARAMS, HPF)),
                          np.union1d(PARAMS.occupied_bins,
                                     -PARAMS.occupied_bins % PARAMS.n_oversampled))
    with pytest.raises(ShapeError):
        envelope_magnitude(np.zeros((2, 1000)), PARAMS)


def test_peak_regrowth_exists():
    # Filtering after clipping pushes some envelope peaks back above A.
    rng = np.random.default_rng(10)
    regrown = 0
    for _ in range(100):
        bits = rng.integers(0, 2, PARAMS.n_subcarriers * 2)
        bb = ofdm_modulate(oversample_extend(map_bits(bits, ModScheme("psk", 4)),
                                             PARAMS.oversample), PARAMS)
        amplitude = rms(bb)  # CR = 1.0
        clipped = clip_baseband(bb, amplitude)
        out = composed_filter(clipped, PARAMS, HPF)
        env = envelope_magnitude(out, PARAMS)
        if np.max(env) > amplitude:
            regrown += 1
    assert regrown > 0
