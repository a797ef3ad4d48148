"""Amplitude clipping at a clipping ratio and the composed frequency-domain filter.

The clip level is A = CR * sigma where sigma is the RMS of the unclipped
signal; passband clipping is the hard three-branch limiter and baseband
clipping limits magnitude while preserving phase. The composed filter takes
one clipped OFDM symbol (N*L passband samples, no prefix), transforms it,
zeroes every bin outside the occupied band and its conjugate image, scales
the surviving bins by the high-pass filter's zero-phase amplitude response,
and transforms back to a real signal.

The filter multiplies by the zero-phase amplitude rather than the causal
complex response: inside an FFT/IFFT pair a linear-phase multiplication
would circularly delay the symbol and misalign it with its cyclic prefix,
while the amplitude response applies the same magnitude shaping with no
shift.
"""
from __future__ import annotations

import numpy as np

from . import fir_design
from .errors import ConfigError, ShapeError
from .ofdm_chain import OfdmParams, _require_block


def rms(samples) -> float:
    """Root mean square of the sample magnitudes over the whole array."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ShapeError("rms of an empty signal is undefined")
    return float(np.sqrt(np.mean(np.abs(samples) ** 2)))


def clip_passband(samples, amplitude: float) -> np.ndarray:
    """Hard-limit real samples to [-amplitude, +amplitude]."""
    if amplitude <= 0:
        raise ConfigError("clip amplitude must be positive")
    return np.clip(samples, -amplitude, amplitude)


def clip_baseband(samples, amplitude: float) -> np.ndarray:
    """Limit complex sample magnitudes to ``amplitude``, preserving phase."""
    if amplitude <= 0:
        raise ConfigError("clip amplitude must be positive")
    samples = np.asarray(samples)
    mag = np.abs(samples)
    return np.where(mag > amplitude, samples * (amplitude / np.where(mag == 0, 1.0, mag)), samples)


def band_gains(params: OfdmParams, hpf: fir_design.FirFilter) -> np.ndarray:
    """Real even per-bin multiplier of the composed filter: 0 out of band,
    HPF amplitude in band.

    The occupied band is ``params.occupied_bins`` plus its negative-frequency
    image; all other bins are the zero-insertion region translated to
    passband and are forced back to exactly zero.
    """
    band = params.occupied_bins
    gains = np.zeros(params.n_oversampled)
    gains[band] = fir_design.amplitude_response(hpf, band / params.n_oversampled)
    gains[-band] = gains[band]
    return gains


def composed_filter(samples, params: OfdmParams, hpf: fir_design.FirFilter) -> np.ndarray:
    """FFT, out-of-band re-zeroing plus in-band high-pass scaling, IFFT.

    Operates on blocks of exactly one OFDM symbol, (..., N*L) real samples
    (prefix excluded). The gain vector is real and even in frequency, so
    conjugate symmetry is preserved and the output is real.
    """
    samples = np.asarray(samples)
    _require_block(samples, params, "signal")
    spectrum = np.fft.fft(samples, axis=-1) * band_gains(params, hpf)
    return np.fft.ifft(spectrum, axis=-1).real


def default_hpf_spec(
    params: OfdmParams,
    num_taps: int = 81,
    stop_edge: float | None = None,
    pass_edge: float | None = None,
) -> fir_design.FirDesignSpec:
    """Band plan for the composed filter's high-pass.

    Defaults pass the whole occupied band [f_c - BW/2, f_s/2] and stop
    [0, f_c - 0.75 BW], attenuating low-frequency clipping distortion below
    the band. Edges are normalized to the sample rate and can be overridden
    from the experiment config.
    """
    if stop_edge is None:
        stop_edge = (params.carrier_hz - 0.75 * params.bandwidth_hz) / params.sample_hz
    if pass_edge is None:
        pass_edge = (params.carrier_hz - 0.5 * params.bandwidth_hz) / params.sample_hz
    if stop_edge <= 0 or pass_edge <= stop_edge:
        raise ConfigError(
            "high-pass band plan is infeasible for these parameters; "
            "set explicit hpf stop/pass edges"
        )
    return fir_design.FirDesignSpec(
        num_taps=num_taps,
        bands=((0.0, stop_edge), (pass_edge, 0.5)),
        desired=(0.0, 1.0),
        weights=(1.0, 1.0),
    )
