import numpy as np
import pytest

from paprsim import (
    ConfigError,
    ModScheme,
    OfdmParams,
    ShapeError,
    add_cyclic_prefix,
    default_hpf_spec,
    design_equiripple,
    demodulate_passband,
    map_bits,
    ofdm_modulate,
    oversample_extend,
    upconvert,
)
from paprsim.ofdm_chain import _carrier, _place_frames

from oracles import (
    ORACLE_PLANS,
    baseband_frames,
    direct_oversampled_idft,
    inserted_zero_bins,
    ofdm_demodulate,
    passband_receive_symbols,
    remove_cyclic_prefix,
    transmit_blocks,
)

PARAMS = OfdmParams()  # 128 subcarriers, L=8, 1 MHz band at 2 MHz, cp 32


def random_frame(rng, params=PARAMS, scheme=ModScheme("psk", 4)):
    bits = rng.integers(0, 2, params.n_subcarriers * scheme.bits_per_symbol)
    return map_bits(bits, scheme)


def test_params_invariants():
    assert PARAMS.sample_hz == 8e6
    assert PARAMS.subcarrier_spacing_hz == pytest.approx(1e6 / 128)
    assert PARAMS.symbol_interval_s == pytest.approx(128e-6)
    assert PARAMS.n_oversampled == 1024
    assert PARAMS.cp_oversampled == 256


def test_params_validation():
    with pytest.raises(ConfigError):
        OfdmParams(n_subcarriers=127)  # odd
    with pytest.raises(ConfigError):
        OfdmParams(n_subcarriers=0)
    with pytest.raises(ConfigError):
        OfdmParams(cp_len=129)
    with pytest.raises(ConfigError):
        OfdmParams(carrier_hz=7.6e6)  # band exceeds Nyquist
    with pytest.raises(ConfigError):
        OfdmParams(carrier_hz=0.2e6)  # band dips below DC
    assert OfdmParams(n_subcarriers=64, oversample=4, carrier_hz=1e6).sample_hz == 4e6


def test_params_refuse_a_single_subcarrier():
    # 1 passes the positive-integer check; the band needs N/2 bins on each
    # side of the carrier.
    with pytest.raises(ConfigError, match="^n_subcarriers must be >= 2$"):
        OfdmParams(n_subcarriers=1)


@pytest.mark.parametrize("field, value, message", [
    ("n_subcarriers", 128.0, "n_subcarriers must be a positive integer"),
    ("oversample", 8.5, "oversample must be a positive integer"),
    ("cp_len", 32.5, "cp_len must be a non-negative integer"),
    ("bandwidth_hz", float("nan"), "bandwidth_hz must be positive and finite"),
    ("carrier_hz", float("nan"), "carrier_hz must be finite"),
    ("bandwidth_hz", "1e6", "bandwidth_hz must be positive and finite"),
    ("carrier_hz", "2e6", "carrier_hz must be finite"),
    ("bandwidth_hz", True, "bandwidth_hz must be positive and finite"),
    ("carrier_hz", True, "carrier_hz must be finite"),
], ids=["n_subcarriers_float", "oversample_fraction", "cp_len_fraction", "bandwidth_nan",
        "carrier_nan", "bandwidth_str", "carrier_str", "bandwidth_bool", "carrier_bool"])
def test_params_refuse_non_integer_counts_and_non_finite_frequencies(field, value, message):
    # Each passes the range checks: a float count would fail every cell at
    # run time (a fractional prefix only the BER half), and a NaN frequency
    # fails no comparison, so it would reach the rounding of the carrier bin.
    # Unchecked, a string frequency raised a TypeError in the first
    # comparison, and True passed as 1 Hz as far as the band checks.
    with pytest.raises(ConfigError, match=message):
        OfdmParams(**{field: value})


def test_params_carrier_must_sit_on_a_bin():
    assert OfdmParams(carrier_hz=2e6).carrier_bin == 256
    # Bin 256.5 and bin 217.6 of the 1024-point block at N=128, L=8.
    with pytest.raises(ConfigError, match="2000000 and 2007812.5 Hz"):
        OfdmParams(carrier_hz=2.00390625e6)
    with pytest.raises(ConfigError, match="1695312.5 and 1703125 Hz"):
        OfdmParams(carrier_hz=1.7e6)


def test_extend_identity_at_l1():
    frame = np.arange(8, dtype=complex)
    assert np.array_equal(oversample_extend(frame, 1), frame)


def test_extend_hand_example():
    got = oversample_extend(np.ones(4, dtype=complex), 2)
    assert np.array_equal(got, np.array([1, 1, 1, 0, 0, 0, 1, 1], dtype=complex))


@pytest.mark.parametrize("n,l", [(8, 2), (16, 4), (128, 8)])
def test_extend_index_sets(n, l):
    rng = np.random.default_rng(n * l)
    frame = rng.normal(size=n) + 1j * rng.normal(size=n)
    out = oversample_extend(frame, l)
    # Enumeration oracle: low half plus edge, interior zeros, shifted top half.
    assert np.array_equal(out[: n // 2 + 1], frame[: n // 2 + 1])
    assert np.array_equal(out[n * l - n // 2 :], frame[n // 2 :])
    zeros = inserted_zero_bins(n, l)
    assert zeros.size == n * (l - 1) - 1
    assert np.all(out[zeros] == 0)
    assert np.count_nonzero(out == 0) >= zeros.size


def test_extend_odd_n_rejected():
    with pytest.raises(ConfigError):
        oversample_extend(np.ones(5, dtype=complex), 2)


@pytest.mark.parametrize("n,l", [(8, 1), (8, 2), (16, 4), (128, 8)])
def test_extend_is_the_placement_at_bin_0(n, l):
    rng = np.random.default_rng(n + l)
    frames = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    assert np.array_equal(oversample_extend(frames, l), _place_frames(frames, l, 0))
    assert np.array_equal(oversample_extend(frames, l), _place_frames(frames, l))


@pytest.mark.parametrize("plan", sorted(ORACLE_PLANS))
def test_the_placement_at_the_carrier_bin_is_the_extension_rolled_there(plan):
    # Every bin of out= is written, the zeros on both sides of the band too.
    params, _ = ORACLE_PLANS[plan]
    rng = np.random.default_rng(17)
    frames = rng.normal(size=(3, params.n_subcarriers)) + 1j * rng.normal(size=(3, params.n_subcarriers))
    out = np.full((3, params.n_oversampled), np.nan, complex)
    got = _place_frames(frames, params.oversample, params.carrier_bin, out=out)
    assert got is out
    want = np.roll(oversample_extend(frames, params.oversample), params.carrier_bin, axis=-1)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("plan", sorted(ORACLE_PLANS))
def test_modulating_the_frame_placed_at_the_carrier_gives_x_times_the_carrier(plan):
    # An on-bin carrier shifts the spectrum by k_c bins, so the modulator
    # writes x c directly (README section 5).
    params, _ = ORACLE_PLANS[plan]
    scheme = ModScheme.from_name("16qam")
    bits = np.random.default_rng(19).integers(0, 2, (20, params.n_subcarriers * 4), dtype=np.uint8)
    baseband = baseband_frames(bits, scheme, params)
    frames = _place_frames(map_bits(bits, scheme), params.oversample, params.carrier_bin)
    got = ofdm_modulate(frames, params)
    want = baseband * _carrier(params.n_oversampled, params)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(baseband))


def test_modulate_zero_frame():
    out = ofdm_modulate(np.zeros(PARAMS.n_oversampled, dtype=complex), PARAMS)
    assert np.all(out == 0)
    assert out.shape == (PARAMS.n_oversampled,)


def test_modulate_dc_bin():
    params = OfdmParams(n_subcarriers=4, oversample=2, bandwidth_hz=1e6, carrier_hz=0.5e6, cp_len=0)
    frame = np.zeros(8, dtype=complex)
    frame[0] = 1.0
    out = ofdm_modulate(frame, params)
    assert np.allclose(out, np.full(8, 1.0 / np.sqrt(8.0)), atol=1e-15)


def test_modulate_matches_direct_sum():
    rng = np.random.default_rng(5)
    frame = oversample_extend(random_frame(rng), PARAMS.oversample)
    fast = ofdm_modulate(frame, PARAMS)
    direct = direct_oversampled_idft(frame)
    assert np.max(np.abs(fast - direct)) / np.max(np.abs(direct)) < 1e-9


def test_parseval():
    rng = np.random.default_rng(6)
    frame = oversample_extend(random_frame(rng), PARAMS.oversample)
    x = ofdm_modulate(frame, PARAMS)
    lhs = np.sum(np.abs(frame) ** 2)
    rhs = np.sum(np.abs(x) ** 2)
    assert abs(lhs - rhs) / lhs < 1e-9


def test_linearity():
    rng = np.random.default_rng(7)
    f1 = oversample_extend(random_frame(rng), PARAMS.oversample)
    f2 = oversample_extend(random_frame(rng), PARAMS.oversample)
    a, b = 2.0 - 1j, -0.3 + 0.7j
    lhs = ofdm_modulate(a * f1 + b * f2, PARAMS)
    rhs = a * ofdm_modulate(f1, PARAMS) + b * ofdm_modulate(f2, PARAMS)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_oversampled_spectrum_zero_on_inserted_bins():
    rng = np.random.default_rng(8)
    frame = oversample_extend(random_frame(rng), PARAMS.oversample)
    x = ofdm_modulate(frame, PARAMS)
    spectrum = np.fft.fft(x) / np.sqrt(x.size)
    zeros = inserted_zero_bins(PARAMS.n_subcarriers, PARAMS.oversample)
    leak = np.max(np.abs(spectrum[zeros]) ** 2) / np.max(np.abs(spectrum) ** 2)
    assert leak < 1e-20  # below -200 dB


def test_modulate_demodulate_round_trip():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(1000):
        frame = random_frame(rng)
        ext = oversample_extend(frame, PARAMS.oversample)
        back = ofdm_demodulate(ofdm_modulate(ext, PARAMS), PARAMS)
        worst = max(worst, float(np.max(np.abs(back - frame))))
    assert worst < 1e-9


def test_demodulate_validates_length():
    with pytest.raises(ShapeError):
        ofdm_demodulate(np.zeros(100, dtype=complex), PARAMS)


def test_batched_blocks_match_single_blocks():
    # Every stage works along the last axis: a (2, 3, n) batch gives the
    # same bytes as each block on its own.
    scheme, cp = ModScheme("qam", 16), PARAMS.cp_oversampled

    def transmit(bits):
        frames = oversample_extend(map_bits(bits, scheme), PARAMS.oversample)
        return upconvert(add_cyclic_prefix(ofdm_modulate(frames, PARAMS), cp), PARAMS)

    def receive(passband):
        return demodulate_passband(remove_cyclic_prefix(passband, cp), PARAMS)

    rng = np.random.default_rng(13)
    bits = rng.integers(0, 2, (2, 3, PARAMS.n_subcarriers * 4), dtype=np.uint8)
    passband = transmit(bits)
    symbols = receive(passband)
    assert passband.shape == (2, 3, PARAMS.n_oversampled + cp)
    assert symbols.shape == (2, 3, PARAMS.n_subcarriers)
    for i, j in np.ndindex(2, 3):
        assert np.array_equal(passband[i, j], transmit(bits[i, j]))
        assert np.array_equal(symbols[i, j], receive(passband[i, j]))
    # Length checks read the trailing axis of a batch.
    with pytest.raises(ShapeError):
        ofdm_modulate(np.zeros((4, PARAMS.n_oversampled + 1), dtype=complex), PARAMS)
    with pytest.raises(ShapeError):
        ofdm_demodulate(np.zeros((4, PARAMS.n_subcarriers)), PARAMS)
    with pytest.raises(ShapeError):
        map_bits(np.zeros((4, 7), dtype=np.uint8), scheme)


def test_cyclic_prefix_examples():
    sig = np.array([1 + 1j, 2, 3, 4], dtype=complex)
    with_cp = add_cyclic_prefix(sig, 2)
    assert np.array_equal(with_cp, np.array([3, 4, 1 + 1j, 2, 3, 4], dtype=complex))
    assert np.array_equal(remove_cyclic_prefix(with_cp, 2), sig)
    assert add_cyclic_prefix(sig, 0) is sig
    with pytest.raises(ShapeError):
        add_cyclic_prefix(sig, 5)
    with pytest.raises(ShapeError):
        remove_cyclic_prefix(sig, 4)


def test_cyclic_prefix_round_trip_random():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        n = int(rng.integers(4, 64))
        cp = int(rng.integers(0, n))
        sig = rng.normal(size=n) + 1j * rng.normal(size=n)
        back = remove_cyclic_prefix(add_cyclic_prefix(sig, cp), cp)
        assert np.array_equal(back, sig)


def test_upconvert_zero():
    assert np.all(upconvert(np.zeros(16, dtype=complex), PARAMS) == 0)


def test_upconvert_quarter_rate_cosine():
    got = upconvert(np.ones(8, dtype=complex), PARAMS)
    want = np.sqrt(2.0) * np.array([1, 0, -1, 0, 1, 0, -1, 0], dtype=float)
    assert np.allclose(got, want, atol=1e-12)


def test_upconvert_nyquist_guard():
    # The guard lives in OfdmParams: the band's top edge may reach Nyquist
    # but not pass it. At the highest carrier it accepts (3.5 MHz at 8 MHz),
    # upconvert's spectrum stays on the occupied bins, ending on Nyquist.
    edge = OfdmParams(carrier_hz=3.5e6)
    assert edge.occupied_bins[-1] == edge.n_oversampled // 2
    frame = oversample_extend(random_frame(np.random.default_rng(9), edge), edge.oversample)
    spectrum = np.abs(np.fft.rfft(upconvert(ofdm_modulate(frame, edge), edge)))
    outside = np.setdiff1d(np.arange(spectrum.size), edge.occupied_bins)
    assert np.max(spectrum[outside]) < 1e-9 * np.max(spectrum)
    with pytest.raises(ConfigError, match="must not exceed sample_hz / 2"):
        OfdmParams(carrier_hz=3.5e6 + edge.subcarrier_spacing_hz)


def test_upconvert_power_preservation():
    rng = np.random.default_rng(11)
    ratios = []
    for _ in range(200):
        frame = oversample_extend(random_frame(rng), PARAMS.oversample)
        bb = ofdm_modulate(frame, PARAMS)
        pb = upconvert(bb, PARAMS)
        ratios.append(np.mean(pb**2) / np.mean(np.abs(bb) ** 2))
    assert abs(np.mean(ratios) - 1.0) < 0.02


def test_up_down_round_trip_evm():
    # Per-subcarrier rms EVM after demodulation is at round-off: the
    # receiver's gain is exactly 1 at every data bin.
    rng = np.random.default_rng(12)
    n_frames, cp = 64, PARAMS.cp_oversampled
    err2 = np.zeros(PARAMS.n_subcarriers)
    for _ in range(n_frames):
        frame = random_frame(rng)
        bb = ofdm_modulate(oversample_extend(frame, PARAMS.oversample), PARAMS)
        passband = upconvert(add_cyclic_prefix(bb, cp), PARAMS)
        err2 += np.abs(demodulate_passband(remove_cyclic_prefix(passband, cp), PARAMS) - frame) ** 2
    evm = np.sqrt(err2 / n_frames)  # unit-energy symbols
    assert np.max(evm) < 1e-12


def test_upconvert_round_trip_on_a_high_carrier():
    # 64 16-QAM frames on the high_carrier plan (k_c = 368 of N*L = 896).
    # Both carriers reduce the phase k_c m mod N*L in integers, so the
    # round trip is at round-off; with the float phase f_c m / f_s,
    # upconvert's late samples put it 9.4e-13 off.
    params, _ = ORACLE_PLANS["high_carrier"]
    scheme, cp = ModScheme("qam", 16), params.cp_oversampled
    rng = np.random.default_rng(0)
    frames = map_bits(rng.integers(0, 2, (64, params.n_subcarriers * 4), dtype=np.uint8), scheme)
    baseband = ofdm_modulate(oversample_extend(frames, params.oversample), params)
    passband = upconvert(add_cyclic_prefix(baseband, cp), params)
    got = demodulate_passband(remove_cyclic_prefix(passband, cp), params)
    assert np.max(np.abs(got - frames)) < 1e-14


def test_full_chain_zero_noise_ber_is_zero():
    from paprsim import simulate_chain_ber

    errors, total = simulate_chain_ber(PARAMS, ModScheme("qam", 32), min_bits=20_000, seed=1)
    assert total >= 20_000
    assert errors == 0


# The composed-filter oracle plans; small_specs p18, on which a 31-tap
# image-reject low-pass has no minimax design; and a 3-sample prefix that
# puts the carrier 0.023 of a turn past its phase at the prefix start.
RX_PLANS = {
    **ORACLE_PLANS,
    "lowpass_diverges": (OfdmParams(n_subcarriers=128, oversample=12, carrier_hz=4.75e6), {}),
    "prefix_phase": (OfdmParams(carrier_hz=2.0078125e6, cp_len=3), {}),
}


@pytest.mark.parametrize("plan", sorted(RX_PLANS))
def test_receive_fold_matches_passband_oracle(plan):
    # Noise-free clipped and filtered 16-QAM blocks; symbols are compared,
    # not bits, because an exact decision tie can fall either way.
    params, edges = RX_PLANS[plan]
    hpf = design_equiripple(default_hpf_spec(params, **edges))
    rng = np.random.default_rng(15)
    scheme = ModScheme("qam", 16)
    bits = rng.integers(0, 2, (64, params.n_subcarriers * scheme.bits_per_symbol), dtype=np.uint8)
    blocks = transmit_blocks(bits, scheme, params, 0.9, hpf)
    want = passband_receive_symbols(blocks, params)
    symbols = remove_cyclic_prefix(blocks, params.cp_oversampled)
    got = demodulate_passband(symbols, params)
    assert got.shape == want.shape == (64, params.n_subcarriers)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(blocks))
    batch = demodulate_passband(symbols.reshape(2, 32, -1), params)
    assert np.array_equal(batch, got.reshape(2, 32, -1))


def test_demodulate_passband_refusals():
    total = PARAMS.n_oversampled
    with pytest.raises(ShapeError, match="real passband"):
        demodulate_passband(np.zeros((2, total), dtype=complex), PARAMS)
    with pytest.raises(ShapeError, match="length"):
        demodulate_passband(np.zeros((2, total + PARAMS.cp_oversampled)), PARAMS)
