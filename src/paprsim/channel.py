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

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class NoiseConfig:
    """Operating point of the AWGN channel for one modulation scheme."""

    ebn0_db: float
    bits_per_symbol: int
    occupied_fraction: float  # N / (N * L), i.e. 1 / oversample
    cp_overhead: float  # N / (N + cp_len)

    def __post_init__(self):
        if not np.isfinite(self.ebn0_db):
            raise ConfigError("ebn0_db must be finite")
        if self.bits_per_symbol < 1:
            raise ConfigError("bits_per_symbol must be >= 1")
        if not 0 < self.occupied_fraction <= 1:
            raise ConfigError("occupied_fraction must lie in (0, 1]")
        if not 0 < self.cp_overhead <= 1:
            raise ConfigError("cp_overhead must lie in (0, 1]")


def noise_sigma(config: NoiseConfig, signal_power: float) -> float:
    """Per-sample noise standard deviation realizing the requested Eb/N0.

    ``signal_power`` is the mean square of the passband samples actually
    transmitted (after any clipping and filtering). See the module docstring
    for the derivation.
    """
    if signal_power <= 0:
        raise ConfigError("signal_power must be positive")
    ebn0 = 10.0 ** (config.ebn0_db / 10.0)
    variance = signal_power / (
        2.0 * config.bits_per_symbol * config.cp_overhead * config.occupied_fraction * ebn0
    )
    return float(np.sqrt(variance))


def add_awgn(samples, sigma_n: float, rng) -> np.ndarray:
    """Add zero-mean white Gaussian noise of standard deviation ``sigma_n``.

    ``rng`` is a seed or a ``np.random.Generator``; a Generator is used as
    is, so identical seeds give identical bytes. ``sigma_n = 0`` returns the
    input unchanged and draws nothing.
    """
    if sigma_n < 0:
        raise ConfigError("sigma_n must be non-negative")
    if sigma_n == 0:
        return samples
    samples = np.asarray(samples)
    return samples + np.random.default_rng(rng).normal(0.0, sigma_n, samples.shape)
