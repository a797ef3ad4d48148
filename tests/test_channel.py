import numpy as np
import pytest
from scipy.special import erfc

from paprsim import (
    ConfigError,
    ModScheme,
    OfdmParams,
    add_awgn,
    demodulate_passband,
    noise_sigma,
    simulate_chain_ber,
)

from oracles import ORACLE_PLANS

QPSK = ModScheme("psk", 4)
# The oracle band plans and the reference plan without a cyclic prefix.
SIGMA_PLANS = {name: params for name, (params, _) in ORACLE_PLANS.items()}
SIGMA_PLANS["no_prefix"] = OfdmParams(cp_len=0)


def qpsk_theory(ebn0_db):
    return 0.5 * erfc(np.sqrt(10 ** (ebn0_db / 10.0)))


def test_noise_sigma_vanishes_at_high_ebn0():
    assert noise_sigma(OfdmParams(), QPSK, 300.0, 1.0) < 1e-10


def test_noise_sigma_power_proportionality():
    low = noise_sigma(OfdmParams(), QPSK, 6.0, 1.0)
    high = noise_sigma(OfdmParams(), QPSK, 6.0, 2.0)
    assert high**2 == pytest.approx(2.0 * low**2, rel=1e-12)


def test_noise_sigma_validation():
    with pytest.raises(ConfigError, match="signal_power"):
        noise_sigma(OfdmParams(), QPSK, 6.0, 0.0)
    # Unchecked, a NaN or infinite power gave a NaN or infinite sigma_n.
    for power in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match="signal_power must be positive and finite"):
            noise_sigma(OfdmParams(), QPSK, 6.0, power)
    # Unchecked, "4" raised a TypeError and True ran as 1 dB.
    for ebn0_db in (np.inf, -np.inf, np.nan, "4", True):
        with pytest.raises(ConfigError, match="ebn0_db"):
            noise_sigma(OfdmParams(), QPSK, ebn0_db, 1.0)


@pytest.mark.parametrize("scheme_name", ["qpsk", "8qam", "16psk", "32qam"])
@pytest.mark.parametrize("plan", sorted(SIGMA_PLANS))
def test_noise_sigma_is_the_closed_form_bit_for_bit(plan, scheme_name):
    # sigma_n^2 = P / (2 b cp_overhead (1/L) 10^(Eb/N0 / 10)) with
    # cp_overhead = N / (N + cp), written out and evaluated in this order.
    # Every BER count depends on sigma_n, so it must not move by round-off.
    params = SIGMA_PLANS[plan]
    scheme = ModScheme.from_name(scheme_name)
    n, cp, b = params.n_subcarriers, params.cp_len, scheme.bits_per_symbol
    occupied_fraction = 1.0 / params.oversample
    cp_overhead = n / (n + cp)
    for ebn0_db, power in ((0.0, 1.0), (6.0, 0.1372), (-3.5, 2.25), (12.0, 0.0291)):
        ebn0 = 10.0 ** (ebn0_db / 10.0)
        want = float(np.sqrt(power / (2.0 * b * cp_overhead * occupied_fraction * ebn0)))
        assert noise_sigma(params, scheme, ebn0_db, power) == want


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


@pytest.mark.parametrize("sigma_n", [np.nan, np.inf], ids=repr)
def test_awgn_refuses_a_non_finite_sigma(sigma_n):
    # Unchecked, every output sample was NaN or infinite.
    with pytest.raises(ConfigError, match="sigma_n must be non-negative and finite"):
        add_awgn(np.ones(8), sigma_n, rng=0)


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
    # 2 sigma_n^2, within 4 sampling SEs per bin and pooled.
    params, sigma_n = OfdmParams(), 0.3
    rng = np.random.default_rng(21)
    noise = add_awgn(np.zeros((2000, params.n_oversampled)), sigma_n, rng)
    power = np.abs(demodulate_passband(noise, params)) ** 2
    ratio = power / (2.0 * sigma_n**2)
    se = ratio.std(axis=0, ddof=1) / np.sqrt(ratio.shape[0])
    assert np.all(np.abs(ratio.mean(axis=0) - 1.0) < 4.0 * se)
    assert abs(ratio.mean() - 1.0) < 4.0 * ratio.std(ddof=1) / np.sqrt(ratio.size)
