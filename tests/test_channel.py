import numpy as np
import pytest
from scipy.special import erfc

from paprsim import (
    ConfigError,
    ModScheme,
    NoiseConfig,
    OfdmParams,
    add_awgn,
    amplitude_response,
    demodulate_passband,
    noise_sigma,
    simulate_chain_ber,
)

from oracles import image_reject_filter


def make_config(ebn0_db, bits_per_symbol=2, oversample=8, n=128, cp=32):
    return NoiseConfig(
        ebn0_db=ebn0_db,
        bits_per_symbol=bits_per_symbol,
        occupied_fraction=1.0 / oversample,
        cp_overhead=n / (n + cp),
    )


def qpsk_theory(ebn0_db):
    return 0.5 * erfc(np.sqrt(10 ** (ebn0_db / 10.0)))


def test_noise_sigma_vanishes_at_high_ebn0():
    assert noise_sigma(make_config(300.0), 1.0) < 1e-10


def test_noise_sigma_power_proportionality():
    low = noise_sigma(make_config(6.0), 1.0)
    high = noise_sigma(make_config(6.0), 2.0)
    assert high**2 == pytest.approx(2.0 * low**2, rel=1e-12)


def test_noise_sigma_validation():
    with pytest.raises(ConfigError):
        noise_sigma(make_config(6.0), 0.0)
    with pytest.raises(ConfigError):
        NoiseConfig(ebn0_db=np.inf, bits_per_symbol=2, occupied_fraction=0.125, cp_overhead=0.8)
    with pytest.raises(ConfigError):
        NoiseConfig(ebn0_db=0.0, bits_per_symbol=0, occupied_fraction=0.125, cp_overhead=0.8)
    with pytest.raises(ConfigError):
        NoiseConfig(ebn0_db=0.0, bits_per_symbol=2, occupied_fraction=1.5, cp_overhead=0.8)


def test_awgn_zero_sigma_identity():
    sig = np.arange(32, dtype=float)
    out = add_awgn(sig, 0.0, rng=1)
    assert np.array_equal(out, sig)


def test_awgn_variance():
    out = add_awgn(np.zeros(1_000_000), 0.3, rng=2)
    assert np.var(out) == pytest.approx(0.09, rel=0.01)


def test_awgn_seed_determinism():
    sig = np.ones(1000)
    a = add_awgn(sig, 0.5, rng=42)
    b = add_awgn(sig, 0.5, rng=42)
    c = add_awgn(sig, 0.5, rng=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # A Generator is used as is: the same draws as the seed it came from.
    assert np.array_equal(add_awgn(sig, 0.5, rng=np.random.default_rng(42)), a)
    with pytest.raises(ConfigError):
        add_awgn(sig, -0.1, rng=0)


def test_qpsk_calibration_single_point():
    # Without a prefix the chain sits on the textbook curve; the acceptance
    # suite sweeps the full grid.
    params = OfdmParams(cp_len=0)
    errors, total = simulate_chain_ber(
        params, ModScheme("psk", 4), ebn0_db=4.0, min_bits=200_000, seed=7
    )
    assert errors / total == pytest.approx(qpsk_theory(4.0), rel=0.15)


def test_qpsk_calibration_with_prefix_shift():
    # With a prefix, Eb charges the guard airtime: the curve shifts right by
    # exactly the overhead factor (plus the small band-edge duplication).
    params = OfdmParams()  # cp_len = 32
    n = params.n_subcarriers
    eff = (
        10 ** (6.0 / 10.0)
        * (n / (n + params.cp_len))
        * (n / (n + 1))
    )
    expected = 0.5 * erfc(np.sqrt(eff))
    errors, total = simulate_chain_ber(
        params, ModScheme("psk", 4), ebn0_db=6.0, min_bits=400_000, seed=8
    )
    assert errors / total == pytest.approx(expected, rel=0.15)


def test_ber_monotone_in_ebn0():
    params = OfdmParams(cp_len=0)
    bers = []
    for ebn0 in (0.0, 2.0, 4.0, 6.0):
        errors, total = simulate_chain_ber(
            params, ModScheme("qam", 16), ebn0_db=ebn0, min_bits=60_000, seed=9
        )
        bers.append(errors / total)
    slack = 2.0 * np.sqrt(np.array(bers) * (1 - np.array(bers)) / 60_000)
    assert all(bers[i + 1] <= bers[i] + slack[i] for i in range(len(bers) - 1))


def test_receiver_noise_per_bin():
    # Zero signal plus AWGN: every data bin's noise variance is
    # 2 sigma_n^2 H(j)^2, within 4 sampling SEs per bin and pooled.
    params, sigma_n = OfdmParams(), 0.3
    n, total = params.n_subcarriers, params.n_oversampled
    rng = np.random.default_rng(21)
    noise = add_awgn(np.zeros((2000, total)), sigma_n, rng)
    power = np.abs(demodulate_passband(noise, params)) ** 2
    offsets = np.r_[0 : n // 2 + 1, -n // 2 + 1 : 0]
    response = amplitude_response(image_reject_filter(params), offsets / total)
    ratio = power / (2.0 * sigma_n**2 * response**2)
    se = ratio.std(axis=0, ddof=1) / np.sqrt(ratio.shape[0])
    assert np.all(np.abs(ratio.mean(axis=0) - 1.0) < 4.0 * se)
    assert abs(ratio.mean() - 1.0) < 4.0 * ratio.std(ddof=1) / np.sqrt(ratio.size)
