"""The BER unit: one transmission per (scheme, CR), noise drawn at the N
data bins, checked against the per-cell time-domain path (AWGN on every
passband sample, then ``demodulate_passband``) in ``oracles.py``."""
import math

import numpy as np
import pytest

import paprsim.harness as harness
from paprsim import (
    ExperimentError,
    ExperimentSpec,
    ModScheme,
    NoiseConfig,
    OfdmParams,
    add_awgn,
    clip_attenuation,
    demap_symbols,
    demodulate_passband,
    experiment_hpf,
    map_bits,
    noise_sigma,
    run_ber_experiment,
    simulate_chain_ber,
)
from paprsim.harness import _add_bin_noise, _noise_free_unit, _random_bits
from paprsim.ofdm_chain import _data_bin_response

from oracles import ORACLE_PLANS, time_domain_ber_cell

NOISE_PLANS = ("reference", "nyquist_edge", "high_carrier")


def noise_config(params, scheme, ebn0_db):
    return NoiseConfig(
        ebn0_db=ebn0_db,
        bits_per_symbol=scheme.bits_per_symbol,
        occupied_fraction=1.0 / params.oversample,
        cp_overhead=params.n_subcarriers / (params.n_subcarriers + params.cp_len),
    )


@pytest.mark.parametrize("cr", [None, 1.2], ids=["unclipped", "cr1.2"])
@pytest.mark.parametrize("plan", ["reference", "nyquist_edge"])
def test_noise_free_unit_equals_the_time_domain_path_bit_for_bit(plan, cr):
    # Same bits: the unit's transmit power, sigma_n and noise-free received
    # symbols are the per-cell path's, exactly.
    params, _ = ORACLE_PLANS[plan]
    scheme = ModScheme("qam", 16)
    hpf = experiment_hpf(ExperimentSpec(params=params))
    bits, power, clean = _noise_free_unit(params, scheme, cr, hpf, 50_000,
                                          np.random.default_rng(31))
    assert np.array_equal(bits, _random_bits(np.random.default_rng(31), *bits.shape))
    want_power, want_sigma, want_clean, _ = time_domain_ber_cell(
        bits, scheme, params, cr, 6.0, hpf, np.random.default_rng(32))
    assert power == want_power
    assert noise_sigma(noise_config(params, scheme, 6.0), power) == want_sigma
    assert np.array_equal(clean, want_clean)


@pytest.mark.parametrize("scheme_name", ["16qam", "8qam", "32psk"])
@pytest.mark.parametrize("plan", NOISE_PLANS)
def test_unclipped_unit_slices_the_sent_symbols_times_the_response(monkeypatch, plan,
                                                                   scheme_name):
    # The unclipped chain's gain at data bin j is exactly H(j), so a
    # noiseless unclipped unit hands the slicer map_bits(bits) * H(j),
    # divided by 1. A blind estimate from the received power carries the
    # sampling error of the mean symbol energy: up to 0.5 % on 16-QAM in
    # three draws of 2*10^4 bits.
    params, _ = ORACLE_PLANS[plan]
    scheme = ModScheme.from_name(scheme_name)
    seen = {}
    draw, demap = harness._random_bits, harness._demap_rows

    def bits_spy(rng, n_frames, bits_per_frame):
        seen["bits"] = draw(rng, n_frames, bits_per_frame)
        return seen["bits"]

    def demap_spy(symbols, scheme):
        seen["symbols"] = symbols.copy()
        return demap(symbols, scheme)

    monkeypatch.setattr(harness, "_random_bits", bits_spy)
    monkeypatch.setattr(harness, "_demap_rows", demap_spy)
    assert simulate_chain_ber(params, scheme, min_bits=20_000, seed=33)[0] == 0
    want = map_bits(seen["bits"], scheme) * _data_bin_response(params)
    np.testing.assert_allclose(seen["symbols"], want, rtol=0, atol=1e-12)


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
    response = _data_bin_response(params)
    bin_domain = _add_bin_noise(zeros, sigma_n, response, rng)
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
        m.setattr(harness, "_clip_filter_blocks", boom)
        with pytest.raises(ExperimentError, match=r"scheme=qpsk, cr=1, ebn0=4\b.*inner failure"):
            run_ber_experiment(spec)

    # A later point fails in its own cell.
    demap, calls = harness._demap_rows, []

    def second_fails(symbols, scheme):
        calls.append(None)
        if len(calls) == 2:
            raise ValueError("inner failure")
        return demap(symbols, scheme)

    monkeypatch.setattr(harness, "_demap_rows", second_fails)
    with pytest.raises(ExperimentError, match=r"scheme=qpsk, cr=1, ebn0=8\b"):
        run_ber_experiment(spec)

