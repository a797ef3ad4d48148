"""Oversampled-IFFT OFDM modulation, cyclic prefix, and passband conversion.

The transmit direction builds one OFDM symbol from N frequency-domain
constellation points: zero-insertion oversampling to N*L bins, a unitary
inverse DFT (scale 1/sqrt(L*N)), optional cyclic prefix, and real passband
upconversion with a sqrt(2) factor that preserves mean power. The receive
direction mirrors each step; ``demodulate_passband`` does all of it for
prefix-stripped blocks in one real FFT. Every function takes an array whose
last axis is the bin or sample axis, (..., n), so one call handles one
symbol or a batch; the carrier and sample rate always come from
``OfdmParams``.

Zero-insertion layout: bins 0..N/2 hold the first half of the original
frame and the top N/2 bins hold the second half starting at X[N/2], so the
edge value X[N/2] appears at both band edges and N*(L-1) - 1 interior bins
are exactly zero. The demodulator reads the canonical N positions back, so
the round trip is exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fir_design
from .errors import ConfigError, ShapeError

#: Tap count of the receiver's image-reject low-pass (see ``downconvert`` and
#: ``demodulate_passband``).
IMAGE_REJECT_TAPS = 31


@dataclass(frozen=True)
class OfdmParams:
    """Physical-layer parameter set for one OFDM configuration.

    The sample rate is always bandwidth_hz * oversample, and the occupied
    band [carrier_hz - BW/2, carrier_hz + BW/2] must fit between DC and
    Nyquist. The carrier must sit on a DFT bin of the N*L-sample block
    (carrier_hz * N / BW an integer): the composed filter and the envelope
    treat each block as periodic, which holds only for an on-bin carrier.
    ``cp_len`` counts non-oversampled samples; the transmitted prefix is
    cp_len * oversample samples long.
    """

    n_subcarriers: int = 128
    oversample: int = 8
    bandwidth_hz: float = 1e6
    carrier_hz: float = 2e6
    cp_len: int = 32

    def __post_init__(self):
        if self.n_subcarriers < 2:
            raise ConfigError("n_subcarriers must be >= 2")
        if self.n_subcarriers % 2:
            raise ConfigError("n_subcarriers must be even")
        if self.oversample < 1:
            raise ConfigError("oversample must be >= 1")
        if self.bandwidth_hz <= 0:
            raise ConfigError("bandwidth_hz must be positive")
        if not 0 <= self.cp_len <= self.n_subcarriers:
            raise ConfigError("cp_len must satisfy 0 <= cp_len <= n_subcarriers")
        if self.carrier_hz < self.bandwidth_hz / 2:
            raise ConfigError(
                "carrier_hz must be >= bandwidth_hz / 2 so the occupied band stays above DC"
            )
        if self.carrier_hz + self.bandwidth_hz / 2 > self.sample_hz / 2:
            raise ConfigError(
                "carrier_hz + bandwidth_hz / 2 must not exceed sample_hz / 2 "
                f"(got {self.carrier_hz + self.bandwidth_hz / 2:g} > {self.sample_hz / 2:g})"
            )
        carrier_bin = self.carrier_hz * self.n_subcarriers / self.bandwidth_hz
        if abs(carrier_bin - self.carrier_bin) > 1e-9:
            spacing = self.subcarrier_spacing_hz
            raise ConfigError(
                f"carrier_hz = {self.carrier_hz:.10g} is off the DFT bin grid (bin "
                f"{carrier_bin:.6g} of {self.n_oversampled}); the nearest valid carriers "
                f"are {math.floor(carrier_bin) * spacing:.10g} and "
                f"{math.ceil(carrier_bin) * spacing:.10g} Hz"
            )

    @property
    def sample_hz(self) -> float:
        return self.bandwidth_hz * self.oversample

    @property
    def subcarrier_spacing_hz(self) -> float:
        return self.bandwidth_hz / self.n_subcarriers

    @property
    def symbol_interval_s(self) -> float:
        return 1.0 / self.subcarrier_spacing_hz

    @property
    def n_oversampled(self) -> int:
        return self.n_subcarriers * self.oversample

    @property
    def cp_oversampled(self) -> int:
        return self.cp_len * self.oversample

    @property
    def carrier_bin(self) -> int:
        """DFT bin k_c of the carrier in an N*L-sample block."""
        return round(self.carrier_hz * self.n_subcarriers / self.bandwidth_hz)

    @property
    def occupied_bins(self) -> np.ndarray:
        """Positive-frequency bins k_c - N/2 .. k_c + N/2 of the occupied band
        [f_c - BW/2, f_c + BW/2]; the conjugate image sits at the negated bins."""
        half = self.n_subcarriers // 2
        return np.arange(self.carrier_bin - half, self.carrier_bin + half + 1)


def inserted_zero_bins(n_subcarriers: int, oversample: int) -> np.ndarray:
    """Indices of the oversampling zero-insertion region in an N*L frame."""
    n = n_subcarriers
    return np.arange(n // 2 + 1, n * oversample - n // 2)


def _require_block(samples: np.ndarray, params: OfdmParams, what: str) -> None:
    """Raise unless the trailing axis holds exactly one N*L-sample block."""
    length = samples.shape[-1] if samples.ndim else 0
    if length != params.n_oversampled:
        raise ShapeError(
            f"{what} length {length} != n_subcarriers * oversample = {params.n_oversampled}"
        )


def _out_array(out, shape: tuple, dtype) -> np.ndarray:
    """The numpy-style ``out=`` of a stage function: a new ``shape`` array
    of ``dtype`` when ``out`` is None, else ``out`` itself, which must have
    exactly that shape and dtype."""
    if out is None:
        return np.empty(shape, dtype)
    if not isinstance(out, np.ndarray) or out.shape != shape or out.dtype != dtype:
        got = f"{out.shape} {out.dtype}" if isinstance(out, np.ndarray) else type(out).__name__
        raise ShapeError(f"out must be a {shape} {np.dtype(dtype)} array, got {got}")
    return out


def oversample_extend(frames, oversample: int, *, out=None) -> np.ndarray:
    """Insert mid-spectrum zeros, growing N-bin frames (..., N) to (..., N*L).

    ``out``, a complex (..., N*L) array, receives the result in place of a
    new array; every bin of it is written, the inserted zeros included.
    """
    frames = np.asarray(frames, dtype=complex)
    n = frames.shape[-1]
    if n % 2:
        raise ConfigError("frame length N must be even")
    if oversample < 1:
        raise ConfigError("oversample factor must be >= 1")
    total = n * oversample
    out = _out_array(out, frames.shape[:-1] + (total,), complex)
    out[..., : n // 2 + 1] = frames[..., : n // 2 + 1]
    out[..., n // 2 + 1 : total - n // 2] = 0
    out[..., total - n // 2 :] = frames[..., n // 2 :]
    return out


def ofdm_modulate(frames, params: OfdmParams, *, out=None) -> np.ndarray:
    """Inverse-transform oversampled frames (..., N*L) into baseband samples
    by the unitary inverse DFT (scale 1/sqrt(N*L), numpy's "ortho" norm,
    applied inside the transform), so a block's energy equals its frame's.

    ``out``, a complex array of the frames' shape, receives the samples in
    place of a new array; it may be ``frames`` itself.
    """
    frames = np.asarray(frames, dtype=complex)
    _require_block(frames, params, "frame")
    return np.fft.ifft(frames, axis=-1, norm="ortho", out=_out_array(out, frames.shape, complex))


def ofdm_demodulate(samples, params: OfdmParams) -> np.ndarray:
    """Forward-transform baseband samples (..., N*L) and read the N data bins."""
    samples = np.asarray(samples)
    _require_block(samples, params, "signal")
    n, total = params.n_subcarriers, params.n_oversampled
    spectrum = np.fft.fft(samples, axis=-1) / np.sqrt(total)
    out = np.empty(samples.shape[:-1] + (n,), dtype=complex)
    out[..., : n // 2 + 1] = spectrum[..., : n // 2 + 1]
    out[..., n // 2 + 1 :] = spectrum[..., total - n // 2 + 1 :]
    return out


def add_cyclic_prefix(samples, cp_samples: int) -> np.ndarray:
    """Prepend a copy of the last cp_samples samples of each block."""
    samples = np.asarray(samples)
    if cp_samples < 0 or cp_samples > samples.shape[-1]:
        raise ShapeError(f"cp_samples = {cp_samples} exceeds signal length {samples.shape[-1]}")
    if cp_samples == 0:
        return samples
    return np.concatenate([samples[..., -cp_samples:], samples], axis=-1)


def remove_cyclic_prefix(samples, cp_samples: int) -> np.ndarray:
    """Drop the first cp_samples samples of each block."""
    samples = np.asarray(samples)
    if cp_samples < 0 or cp_samples >= samples.shape[-1]:
        raise ShapeError(
            f"cp_samples = {cp_samples} must be < signal length {samples.shape[-1]}"
        )
    return samples[..., cp_samples:]


def _carrier(n: int, params: OfdmParams) -> np.ndarray:
    m = np.arange(n)
    return np.exp(2j * np.pi * params.carrier_hz * m / params.sample_hz)


def upconvert(samples, params: OfdmParams) -> np.ndarray:
    """Shift complex baseband (..., n) to a real passband at the carrier.

    The sqrt(2) factor keeps mean power equal between the two domains.
    """
    samples = np.asarray(samples)
    return np.sqrt(2.0) * np.real(samples * _carrier(samples.shape[-1], params))


@lru_cache(maxsize=None)
def image_reject_lowpass(spec: fir_design.FirDesignSpec) -> fir_design.FirFilter:
    """Equiripple image-reject low-pass of the receiver; cached per design target."""
    return fir_design.design_equiripple(spec)


def _image_filter_spec(params: OfdmParams) -> fir_design.FirDesignSpec:
    """Design target of the receiver's image-reject low-pass: passband edge
    at BW/2, stopband from the carrier down-mixed image side. Building it
    designs nothing and raises ``ConfigError`` for a plan it cannot meet."""
    try:
        return fir_design.FirDesignSpec(
            num_taps=IMAGE_REJECT_TAPS,
            bands=((0.0, (params.bandwidth_hz / 2) / params.sample_hz),
                   (params.carrier_hz / params.sample_hz, 0.5)),
            desired=(1.0, 0.0),
            weights=(1.0, 1.0),
        )
    except ConfigError as exc:
        raise ConfigError(
            "the receiver's image-reject low-pass needs carrier_hz > bandwidth_hz / 2, "
            f"a band clear of DC: {exc}"
        ) from None


def _image_filter_for(params: OfdmParams) -> fir_design.FirFilter:
    return image_reject_lowpass(_image_filter_spec(params))


def _filter_rows(samples: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Linear convolution along the last axis, via FFT, full length."""
    n = samples.shape[-1] + taps.size - 1
    nfft = 1 << (n - 1).bit_length()
    spectrum = np.fft.fft(samples, nfft, axis=-1) * np.fft.fft(taps, nfft)
    return np.fft.ifft(spectrum, axis=-1)[..., :n]


def downconvert(samples, params: OfdmParams) -> np.ndarray:
    """Mix real passband samples (..., n) down to complex baseband.

    Multiplies by sqrt(2) exp(-j 2 pi f_c m / f_s), then low-pass filters to
    the occupied band to reject the 2 f_c image. The filter is linear phase
    and its group delay is compensated by trimming, so output sample m lines
    up with input sample m. The first and last group_delay samples carry the
    filter's edge transients. To demodulate whole OFDM blocks, use
    :func:`demodulate_passband`, which applies the same mixer and low-pass
    circularly.
    """
    samples = np.asarray(samples)
    mixed = np.sqrt(2.0) * samples * np.conj(_carrier(samples.shape[-1], params))
    taps = _image_filter_for(params).taps
    delay = (taps.size - 1) // 2
    return _filter_rows(mixed, taps)[..., delay : delay + mixed.shape[-1]]


def _data_bin_offsets(params: OfdmParams) -> np.ndarray:
    """Offset j from the carrier bin of each data bin, in
    :func:`ofdm_demodulate`'s order: 0..N/2, then -N/2+1..-1.

    X[N/2] is sent at both band edges. When k_c + N/2 is the Nyquist bin, a
    real signal keeps only the real part of that copy, so the offset of
    slot N/2 becomes -N/2, the other copy.
    """
    n = params.n_subcarriers
    offsets = np.r_[0 : n // 2 + 1, -n // 2 + 1 : 0]
    if 2 * (params.carrier_bin + n // 2) == params.n_oversampled:
        offsets[n // 2] = -(n // 2)
    return offsets


def _data_bin_response(params: OfdmParams) -> np.ndarray:
    """The image-reject low-pass's zero-phase response H(j) at the data bins."""
    offsets = _data_bin_offsets(params)
    return fir_design.amplitude_response(_image_filter_for(params), offsets / params.n_oversampled)


def demodulate_passband(samples, params: OfdmParams) -> np.ndarray:
    """Demodulate real passband blocks (..., N*L), prefix already stripped,
    to their N data bins (..., N) in :func:`ofdm_demodulate`'s order.

    The receiver in one transform: mix down by sqrt(2) exp(-j 2 pi f_c m /
    f_s), with the carrier phase counted from the start of the cyclic
    prefix as ``upconvert`` of a prefixed block sets it; low-pass with the
    image-reject filter, circularly as the prefix allows; forward-transform
    (unitary) and read the data bins. For an on-bin carrier that chain is
    diagonal in the DFT: data bin j is the real FFT's bin k_c + j, scaled by
    sqrt(2 / (N*L)) and by the low-pass's zero-phase response at j / (N*L).
    On a plan whose band edge k_c + N/2 is the Nyquist bin, X[N/2] is read
    from its copy at k_c - N/2. No data bin is then DC or Nyquist, so white
    real noise of variance sigma_n^2 reaches data bin j as independent
    circular complex noise of variance 2 sigma_n^2 H(j)^2.
    """
    samples = np.asarray(samples)
    _require_block(samples, params, "signal")
    if np.iscomplexobj(samples):
        raise ShapeError(
            "demodulate_passband takes real passband blocks, not complex baseband"
        )
    total = params.n_oversampled
    # Carrier phase at the first input sample, in turns, reduced mod N*L
    # before dividing so that a whole number of turns gives exactly 1.
    turns = (params.carrier_bin * params.cp_oversampled) % total / total
    weights = (
        np.sqrt(2.0 / total) * _data_bin_response(params) * np.exp(-2j * np.pi * turns)
    )
    bins = params.carrier_bin + _data_bin_offsets(params)
    return np.fft.rfft(samples, axis=-1)[..., bins] * weights
