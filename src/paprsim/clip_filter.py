"""Amplitude clipping at a clipping ratio and the composed frequency-domain filter.

The clip level is A = CR * sigma, sigma the closed-form RMS of the OFDM
signal (README section 1). The clipper limits each complex baseband
sample's magnitude to A and keeps its phase: a multiplication by the real
factor A / max(|x|, A) (README section 6). The composed filter zeroes
every bin of the real passband symbol outside the occupied band and its
image and scales the band by the high-pass's zero-phase amplitude
response (``band_gains``); ``composed_filter`` computes it on the complex
baseband by one real FFT and one inverse FFT (README section 5).

``clip_baseband`` and ``composed_filter`` return new arrays and leave their
input unchanged. The experiments call their kernels instead, in place on
buffers of their own: the clip's real factor (``_clip_factor``), which
the filter's forward half (``_filter_forward``) takes in place of a
clipped block, and the inverse half (``_filter_inverse``).
"""
from __future__ import annotations

import numpy as np

from . import fir_design
from .errors import ConfigError, ShapeError
from .ofdm_chain import OfdmParams, _carrier, _is_real, _require_block, _self_image_bins


def clip_baseband(samples, amplitude: float) -> np.ndarray:
    """Limit complex sample magnitudes to ``amplitude``, preserving phase:
    the samples times the clip's real factor (``_clip_factor``)."""
    if not (_is_real(amplitude) and 0 < amplitude < np.inf):
        raise ConfigError(f"clip amplitude must be positive and finite, got {amplitude!r}")
    samples = np.asarray(samples)
    if not np.issubdtype(samples.dtype, np.inexact):
        samples = samples.astype(float)
    return samples * _clip_factor(np.abs(samples), amplitude)


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


def composed_filter(samples, params: OfdmParams, hpf: fir_design.FirFilter) -> np.ndarray:
    """Composed filter of clipped complex baseband blocks (..., N*L), prefix
    excluded. Returns the complex envelope y of the filtered passband
    block: ``upconvert(y)`` is the passband composed filter of
    ``upconvert(samples)`` (README section 5). Both halves run in place on
    a copy of the samples; real input is refused with ``ShapeError``.
    """
    samples = np.asarray(samples)
    _require_block(samples, params, "signal")
    if not np.iscomplexobj(samples):
        raise ShapeError(
            "composed_filter takes the clipped complex baseband block, not "
            "upconvert(...) of it"
        )
    block = samples.copy()
    return _filter_inverse(_filter_forward(block, _composed_fold(params, hpf)), block)


def _composed_fold(params: OfdmParams, hpf: fir_design.FirFilter) -> tuple:
    """The composed filter's fold for one plan and high-pass: the first band
    bin k_c - N/2, the ``band_gains`` of the N + 1 band bins, each halved
    at a band bin that is its own image (``_self_image_bins``, README
    section 5), and the carrier 2 c. It depends on neither the samples nor
    their count, so a cell computes it once and hands it to every chunk."""
    band = params.occupied_bins
    gains = band_gains(params, hpf)[band]
    for k in _self_image_bins(params):
        gains[k - band[0]] /= 2
    return int(band[0]), gains, 2.0 * _carrier(params.n_oversampled, params)


def _filter_forward(samples: np.ndarray, fold: tuple, *, factor=None) -> np.ndarray:
    """The forward half of ``composed_filter`` of checked complex blocks x,
    given their ``_composed_fold``: the real FFT of the passband 2 Re(x c),
    times the real ``factor`` (the clip's, see ``_clip_factor``) when one
    is given, read at the N + 1 band bins k_c - N/2 .. k_c + N/2 and
    multiplied by their gains. Returns those (..., N + 1) band bins Y[j],
    j = -N/2 .. N/2, a view of the real FFT's output.

    x c is written over ``samples``, and the passband over ``factor``. The
    real FFT's output is the only array the call allocates.
    """
    first, gains, carrier = fold
    passband = np.multiply(samples, carrier, out=samples).real
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
    if not all(edge is None or _is_real(edge) for edge in (stop_edge, pass_edge)):
        raise ConfigError(f"hpf edges must be numbers, got {stop_edge!r} and {pass_edge!r}")
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
