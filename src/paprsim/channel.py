"""AWGN channel with Eb/N0 calibration for real passband signals.

``noise_sigma`` charges the cyclic prefix's airtime to the energy per bit;
the derivation is README section 2.
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
    ``params``. Returns sqrt(P * L / (2 * b * cp_overhead * 10^(ebn0_db /
    10))) (README section 2); a non-finite ``ebn0_db`` or a power that is
    not positive and finite raises ``ConfigError``.
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
