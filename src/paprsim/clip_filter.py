"""Amplitude clipping at a clipping ratio and the composed frequency-domain filter.

The clip level is A = CR * sigma where sigma is the RMS of the OFDM
signal, sqrt((N+1)/(N*L)) (see ``harness``); passband clipping is the hard
three-branch limiter and baseband clipping limits magnitude while
preserving phase.

The composed filter is defined on the real passband symbol (N*L samples,
no prefix): zero every DFT bin outside the occupied band and its conjugate
image, and scale the rest by the high-pass filter's zero-phase amplitude
response (``band_gains``). For an on-bin carrier this is an identity on the
baseband spectrum (Armstrong, Electron. Lett. 38(5), 2002), so
``composed_filter`` runs on the clipped complex baseband and no passband
samples are formed.

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
from .ofdm_chain import OfdmParams, _out_array, _require_block


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


def clip_baseband(samples, amplitude: float, *, out=None) -> np.ndarray:
    """Limit complex sample magnitudes to ``amplitude``, preserving phase.

    ``out``, an array of the samples' shape and dtype (float for integer
    samples), receives the result in place of a new array. It must not
    overlap ``samples``: the samples are read after ``out`` is first
    written.
    """
    if amplitude <= 0:
        raise ConfigError("clip amplitude must be positive")
    samples = np.asarray(samples)
    if not np.issubdtype(samples.dtype, np.inexact):
        samples = samples.astype(float)
    out = _out_array(out, samples.shape, samples.dtype)
    if np.may_share_memory(out, samples):
        raise ShapeError("clip_baseband cannot write into its own samples")
    # A / max(|x|, A) is exactly 1.0 where |x| <= A (zeros included), so
    # those samples pass through bit for bit. The factor is formed in
    # ``out`` itself, as factor + 0j for complex samples, so the call
    # allocates nothing of the block's size. numpy multiplies complex x by
    # a real factor array as x * (factor + 0j) too, so the product is the
    # same bit for bit.
    np.abs(samples, out=out)
    scale = out.real
    np.maximum(scale, amplitude, out=scale)
    np.divide(amplitude, scale, out=scale)
    return np.multiply(samples, out, out=out)


def band_gains(params: OfdmParams, hpf: fir_design.FirFilter) -> np.ndarray:
    """Real even per-bin multiplier of the composed filter on the passband
    spectrum: 0 out of band, HPF amplitude in band.

    The occupied band is ``params.occupied_bins`` plus its negative-frequency
    image; all other bins are the zero-insertion region translated to
    passband and are forced back to exactly zero.
    """
    band = params.occupied_bins
    gains = np.zeros(params.n_oversampled)
    gains[band] = fir_design.amplitude_response(hpf, band / params.n_oversampled)
    gains[-band] = gains[band]
    return gains


def composed_filter(
    samples, params: OfdmParams, hpf: fir_design.FirFilter, *, out=None
) -> np.ndarray:
    """Composed filter of clipped complex baseband blocks (..., N*L), prefix
    excluded; returns the complex envelope of the filtered passband block.

    The passband spectrum at band bin k_c + j is (C[j] + conj(C[-j - 2 k_c]))
    / sqrt(2), with C the DFT of the baseband block: the image term is the
    part of the negative-frequency half that upconversion folds onto the
    band. So one FFT, a gather of the N + 1 band bins j = -N/2..N/2 with
    their image bins, the ``band_gains`` at k_c + j and one IFFT give a
    block y with ``upconvert(y)`` equal to the passband composed filter
    of ``upconvert(samples)``. A band bin at DC or Nyquist is its own
    image; the real passband holds it once, so it gets half weight.

    ``out``, an array of the samples' shape and dtype, receives the result
    in place of a new array; it may be ``samples`` itself.
    """
    samples = np.asarray(samples)
    _require_block(samples, params, "signal")
    if not np.iscomplexobj(samples):
        raise ShapeError(
            "composed_filter takes the clipped complex baseband block, not "
            "upconvert(...) of it"
        )
    total = params.n_oversampled
    band = params.occupied_bins
    offsets = (band - params.carrier_bin) % total
    images = (-band - params.carrier_bin) % total  # -j - 2 k_c
    gains = band_gains(params, hpf)[band]
    gains[(2 * band) % total == 0] /= 2
    # The fold and the inverse transform reuse the forward transform's
    # buffer: one block-sized allocation per call, none with ``out``.
    spectrum = np.fft.fft(samples, axis=-1, out=_out_array(out, samples.shape, samples.dtype))
    folded = (spectrum[..., offsets] + np.conj(spectrum[..., images])) * gains
    spectrum.fill(0)
    spectrum[..., offsets] = folded
    return np.fft.ifft(spectrum, axis=-1, out=spectrum)


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
