"""Amplitude clipping at a clipping ratio and the composed frequency-domain filter.

The clip level is A = CR * sigma where sigma is the RMS of the OFDM
signal, sqrt((N+1)/(N*L)) (see ``harness``). The clipper acts on the
complex baseband just before carrier modulation: it limits each sample's
magnitude to A and preserves its phase, which is a multiplication by the
real factor A / max(|x|, A).

The composed filter is defined on the real passband symbol (N*L samples,
no prefix): zero every DFT bin outside the occupied band and its conjugate
image, and scale the rest by the high-pass filter's zero-phase amplitude
response (``band_gains``), as in Armstrong's clip-and-filter (Electron.
Lett. 38(5), 2002). The passband is real, so one real FFT gives every bin
the filter keeps: the band bins k_c + j, j = -N/2..N/2, which
``demodulate_passband`` reads too. For an on-bin carrier the filtered
passband is the upconversion of one complex baseband block, whose DFT
holds the band bins at offsets j from DC, so ``composed_filter`` returns
that block, the complex envelope, with one inverse FFT.

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
from .ofdm_chain import OfdmParams, _carrier, _out_array, _require_block


def clip_baseband(samples, amplitude: float, *, out=None) -> np.ndarray:
    """Limit complex sample magnitudes to ``amplitude``, preserving phase.

    ``out``, an array of the samples' shape and dtype (float for integer
    samples), receives the result in place of a new array. It must not
    overlap ``samples``: the samples are read after ``out`` is first
    written.
    """
    if not 0 < amplitude < np.inf:
        raise ConfigError(f"clip amplitude must be positive and finite, got {amplitude!r}")
    samples = np.asarray(samples)
    if not np.issubdtype(samples.dtype, np.inexact):
        samples = samples.astype(float)
    out = _out_array(out, samples.shape, samples.dtype)
    if np.may_share_memory(out, samples):
        raise ShapeError("clip_baseband cannot write into its own samples")
    # The factor is formed in ``out`` itself, as factor + 0j for complex
    # samples, so the call allocates nothing of the block's size. numpy
    # multiplies complex x by a real factor array as x * (factor + 0j) too,
    # so the product is the same bit for bit.
    np.abs(samples, out=out)
    _clip_factor(out.real, amplitude, out=out.real)
    return np.multiply(samples, out, out=out)


def _clip_factor(samples, amplitude: float, *, out=None) -> np.ndarray:
    """The clip's real factor A / max(m, A) of sample magnitudes m = |x|,
    ``samples``, written into ``out`` (a new array when None; it may be
    ``samples`` itself). The factor is exactly 1.0 where m <= A, zeros
    included, so x * factor passes those samples through bit for bit."""
    out = np.maximum(samples, amplitude, out=out)
    return np.divide(amplitude, out, out=out)


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

    The real passband 2 Re(x c), c = exp(j 2 pi k_c m / (N*L)), has the real
    FFT C[j] + conj(C[-j - 2 k_c]) at band bin k_c + j, with C the DFT of
    the baseband block x: the second term is the part of the negative
    frequencies that upconversion folds onto the band. So one real FFT of
    that passband, the ``band_gains`` at the N + 1 contiguous band bins
    k_c - N/2 .. k_c + N/2 (``_filter_forward``), placed at offsets j from
    DC, and one inverse FFT (``_filter_inverse``) give a block y with
    ``upconvert(y)`` equal to the passband composed filter of
    ``upconvert(samples)``. A band bin at DC or Nyquist is its own image,
    which the real FFT sums into it; the real passband holds it once, so it
    gets half weight.

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
    out = _out_array(out, samples.shape, samples.dtype)
    return _filter_inverse(_filter_forward(samples, _composed_fold(params, hpf), out=out), out)


def _composed_fold(params: OfdmParams, hpf: fir_design.FirFilter) -> tuple:
    """The composed filter's fold for one plan and high-pass: the first band
    bin k_c - N/2, the ``band_gains`` of the N + 1 band bins, each halved
    at a band bin that is its own image, and the carrier 2 c. It depends on
    neither the samples nor their count, so a cell computes it once and
    hands it to every chunk."""
    total = params.n_oversampled
    band = params.occupied_bins
    gains = band_gains(params, hpf)[band]
    gains[(2 * band) % total == 0] /= 2
    return int(band[0]), gains, 2.0 * _carrier(total, params)


def _filter_forward(samples: np.ndarray, fold: tuple, *, factor=None, out=None) -> np.ndarray:
    """The forward half of ``composed_filter`` of checked complex blocks x,
    given their ``_composed_fold``: the real FFT of the passband 2 Re(x c),
    times the real ``factor`` (the clip's, see ``_clip_factor``) when one
    is given, read at the N + 1 band bins k_c - N/2 .. k_c + N/2 and
    multiplied by their gains. Returns those (..., N + 1) band bins Y[j],
    j = -N/2 .. N/2, a view of the real FFT's output.

    x c is formed in ``out`` (a new array when None; it may be ``samples``
    itself), and the passband in ``factor``, which is overwritten. Besides a
    new ``out``, the real FFT's output is the only array the call allocates.
    """
    first, gains, carrier = fold
    product = np.multiply(samples, carrier, out=_out_array(out, samples.shape, samples.dtype))
    passband = product.real
    if factor is not None:
        passband = np.multiply(passband, factor, out=factor)
    band = np.fft.rfft(passband, axis=-1)[..., first : first + gains.size]
    return np.multiply(band, gains, out=band)


def _filter_inverse(band: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The inverse half of ``composed_filter``: band bins Y[j], j = -N/2 ..
    N/2 (``_filter_forward``), placed at offsets j from DC of the complex
    blocks ``out`` (..., N*L), which are zero elsewhere, and inverse
    transformed in place to the complex envelope. Only the bins between the
    band's two halves are zeroed; every other bin of ``out`` is written."""
    half, total = band.shape[-1] // 2, out.shape[-1]
    out[..., : half + 1] = band[..., half:]
    out[..., total - half :] = band[..., :half]
    out[..., half + 1 : total - half] = 0
    return np.fft.ifft(out, axis=-1, out=out)


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
