import numpy as np
import pytest

from paprsim import (
    ConfigError,
    FirDesignSpec,
    ModScheme,
    OfdmParams,
    ShapeError,
    band_gains,
    clip_baseband,
    clip_passband,
    composed_filter,
    design_equiripple,
    experiment_hpf,
    map_bits,
    ofdm_modulate,
    oversample_extend,
    papr_db,
    rms,
    upconvert,
)
from paprsim.harness import ExperimentSpec, envelope_magnitude

from oracles import gaussian_tail

PARAMS = OfdmParams()
HPF = experiment_hpf(ExperimentSpec())
ALLPASS = design_equiripple(FirDesignSpec(3, ((0.0, 0.5),), (1.0,), (1.0,)))


def ofdm_passband(rng, scheme=ModScheme("psk", 4)):
    bits = rng.integers(0, 2, PARAMS.n_subcarriers * scheme.bits_per_symbol)
    bb = ofdm_modulate(oversample_extend(map_bits(bits, scheme), PARAMS.oversample), PARAMS)
    return upconvert(bb, PARAMS)


def test_clip_amplitude_must_be_positive():
    for clip in (clip_passband, clip_baseband):
        for amplitude in (0.0, -1.0):
            with pytest.raises(ConfigError):
                clip(np.ones(4), amplitude)


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
    sig = ofdm_passband(rng)
    out = composed_filter(sig, PARAMS, ALLPASS)
    assert np.max(np.abs(out - sig)) < 1e-9


def test_composed_filter_zeroes_out_of_band_input():
    m = np.arange(PARAMS.n_oversampled)
    tone = np.cos(2 * np.pi * 0.5e6 * m / PARAMS.sample_hz)  # below the band
    out = composed_filter(tone, PARAMS, ALLPASS)
    assert np.max(np.abs(out)) < 1e-12


def test_composed_filter_out_of_band_suppression():
    rng = np.random.default_rng(8)
    sig = ofdm_passband(rng)
    clipped = clip_passband(sig, 1.2 * rms(sig))
    out = composed_filter(clipped, PARAMS, HPF)
    spectrum = np.fft.fft(out)
    gains = band_gains(PARAMS, HPF)
    in_band = np.abs(gains) > 0
    oob_power = np.sum(np.abs(spectrum[~in_band]) ** 2)
    ib_power = np.sum(np.abs(spectrum[in_band]) ** 2)
    assert oob_power / ib_power < 1e-10  # below -100 dB


def test_composed_filter_output_real():
    rng = np.random.default_rng(9)
    sig = ofdm_passband(rng)
    clipped = clip_passband(sig, rms(sig))
    gains = band_gains(PARAMS, HPF)
    full = np.fft.ifft(np.fft.fft(clipped) * gains)
    assert np.max(np.abs(full.imag)) < 1e-9
    out = composed_filter(clipped, PARAMS, HPF)
    assert out.dtype == np.float64


def test_composed_filter_validates_length():
    with pytest.raises(ShapeError):
        composed_filter(np.zeros(100), PARAMS, HPF)


def test_envelope_of_inband_symbol_is_its_baseband_magnitude():
    # envelope_magnitude keeps the same occupied bins as band_gains; for an
    # unclipped symbol that is the whole signal, so the envelope is |x|.
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2, (4, PARAMS.n_subcarriers * 2), dtype=np.uint8)
    bb = ofdm_modulate(oversample_extend(map_bits(bits, ModScheme("psk", 4)),
                                         PARAMS.oversample), PARAMS)
    env = envelope_magnitude(upconvert(bb, PARAMS), PARAMS)
    assert np.max(np.abs(env - np.abs(bb))) < 1e-12
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
        pb = upconvert(clipped, PARAMS)
        out = composed_filter(pb, PARAMS, HPF)
        env = envelope_magnitude(out, PARAMS)
        if np.max(env) > amplitude:
            regrown += 1
    assert regrown > 0
