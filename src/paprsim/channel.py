"""AWGN channel with Eb/N0 calibration for real passband signals.

Noise sigma derivation
----------------------
Let P be the mean square of the transmitted passband samples, b = log2(M)
the bits per constellation symbol, L the oversampling factor, and
cp_overhead = N / (N + cp_len) the fraction of airtime carrying data.

Per transmitted block of (N + cp_len) * L samples the energy is
P * (N + cp_len) * L and the information content is N * b bits, so the
energy per information bit, charging the cyclic prefix's airtime to the
bit, is

    Eb = P * (N + cp) * L / (N * b) = P * L / (b * cp_overhead).

Real white noise of per-sample variance sigma_n^2 has one-sided density
N0 = 2 sigma_n^2 in these discrete-time units. Setting Eb / N0 to the
requested ratio g and solving:

    sigma_n^2 = P * L / (2 * b * cp_overhead * g).

The factor L appears because only a 1/L fraction of the sampled bandwidth
is occupied: at a fixed in-band noise density, faster sampling spreads more
total noise power across the full rate. With cp_len = 0 this convention
reproduces the textbook curves exactly (uncoded QPSK sits on
0.5 * erfc(sqrt(Eb/N0))); with a prefix the whole BER curve shifts right by
10 log10(1 / cp_overhead) because prefix energy buys no data.
"""
from __future__ import annotations

import numpy as np

from .constellation import ModScheme
from .errors import ConfigError, ShapeError
from .ofdm_chain import OfdmParams, _is_real


def noise_sigma(
    params: OfdmParams, scheme: ModScheme, ebn0_db: float, signal_power: float
) -> float:
    """Per-sample noise standard deviation realizing ``ebn0_db`` for
    ``scheme`` on the plan ``params``.

    ``signal_power`` is the mean square of the passband samples actually
    transmitted (after any clipping and filtering), prefix included. The
    occupied fraction 1/L and cp_overhead N/(N + cp_len) come from
    ``params``; see the module docstring for the derivation.
    """
    if not (_is_real(ebn0_db) and np.isfinite(ebn0_db)):
        raise ConfigError(f"ebn0_db must be a finite number, got {ebn0_db!r}")
    if not (_is_real(signal_power) and 0 < signal_power < np.inf):
        raise ConfigError(f"signal_power must be positive and finite, got {signal_power!r}")
    occupied_fraction = 1.0 / params.oversample
    cp_overhead = params.n_subcarriers / (params.n_subcarriers + params.cp_len)
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    variance = signal_power / (
        2.0 * scheme.bits_per_symbol * cp_overhead * occupied_fraction * ebn0
    )
    return float(np.sqrt(variance))


def add_awgn(samples, sigma_n: float, rng) -> np.ndarray:
    """Add zero-mean white Gaussian noise of standard deviation ``sigma_n``
    to real passband samples; complex samples are refused, since real
    noise would leave their imaginary part noiseless.

    ``rng`` is a seed or a ``np.random.Generator``; a Generator is used as
    is, so identical seeds give identical bytes. ``sigma_n = 0`` returns the
    input unchanged and draws nothing.
    """
    if not (_is_real(sigma_n) and 0 <= sigma_n < np.inf):
        raise ConfigError(f"sigma_n must be non-negative and finite, got {sigma_n!r}")
    if np.iscomplexobj(samples):
        raise ShapeError("add_awgn takes real passband samples, not complex baseband")
    if sigma_n == 0:
        return samples
    samples = np.asarray(samples)
    return samples + np.random.default_rng(rng).normal(0.0, sigma_n, samples.shape)
