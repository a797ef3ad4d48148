"""Oversampled-IFFT OFDM modulation, cyclic prefix, and passband conversion.

The transmit direction builds one OFDM symbol from N frequency-domain
constellation points: zero-insertion oversampling to N*L bins, a unitary
inverse DFT (scale 1/sqrt(L*N)), optional cyclic prefix, and real passband
upconversion with a sqrt(2) factor that preserves mean power. The receiver,
``demodulate_passband``, mixes prefix-stripped passband blocks down and
demodulates them in one real FFT. Every function takes an array whose last
axis is the bin or sample axis, (..., n), so one call handles one symbol or
a batch; the carrier and sample rate always come from ``OfdmParams``.

Zero-insertion layout: bins 0..N/2 hold the first half of the original
frame and the top N/2 bins hold the second half starting at X[N/2], so the
edge value X[N/2] appears at both band edges and the N*(L-1) - 1 bins
between them are exactly zero. The receiver reads the N data bins back in
frame order, so the round trip is exact to round-off. The experiments
place the frame the same way around the carrier's bin k_c in place of
DC (``_place_frames``), so that the inverse DFT gives the baseband block
times the carrier (README section 5).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ShapeError


def _is_int(value) -> bool:
    """Whether ``value`` is an integer, a numpy one included; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_int(name: str, value, least: int) -> None:
    """Raise ``ConfigError`` unless ``value`` is an integer of at least
    ``least``: 0 for a seed or a prefix length, 1 for a count."""
    if not _is_int(value) or value < least:
        kind = "non-negative" if least == 0 else "positive"
        raise ConfigError(f"{name} must be a {kind} integer, got {value!r}")


def _is_real(value) -> bool:
    """Whether ``value`` is a real number; a bool is not, as for
    ``_require_int``."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
        _require_int("n_subcarriers", self.n_subcarriers, 1)
        _require_int("oversample", self.oversample, 1)
        _require_int("cp_len", self.cp_len, 0)
        if self.n_subcarriers < 2:
            raise ConfigError("n_subcarriers must be >= 2")
        if self.n_subcarriers % 2:
            raise ConfigError("n_subcarriers must be even")
        if not (_is_real(self.bandwidth_hz) and 0 < self.bandwidth_hz < math.inf):
            raise ConfigError(f"bandwidth_hz must be positive and finite, got {self.bandwidth_hz!r}")
        if not (_is_real(self.carrier_hz) and math.isfinite(self.carrier_hz)):
            raise ConfigError(f"carrier_hz must be finite, got {self.carrier_hz!r}")
        if self.cp_len > self.n_subcarriers:
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
    return _place_frames(frames, oversample, out=out)


def _place_frames(frames, oversample: int, carrier_bin: int = 0, *, out=None) -> np.ndarray:
    """The zero-inserted frames (..., N*L) of N-bin frames (..., N), centred
    on bin k = ``carrier_bin``: X[0..N/2] at bins k..k+N/2, X[N/2..N-1] at
    bins k-N/2..k-1 mod N*L, so X[N/2] sits on both band edges, and zeros
    elsewhere. k = 0 is ``oversample_extend``; for a plan's carrier bin
    k_c, the unitary inverse DFT of the result is x c, the baseband block
    x times the carrier c[m] = exp(j 2 pi k_c m / (N*L)) (README section
    5). k is 0 or lies in N/2 .. N*L - N/2 - 1, as ``OfdmParams`` keeps
    k_c. ``out`` as for ``oversample_extend``.
    """
    frames = np.asarray(frames, dtype=complex)
    n = frames.shape[-1]
    if n % 2:
        raise ConfigError("frame length N must be even")
    if not _is_int(oversample) or oversample < 1:
        raise ConfigError(f"oversample factor must be an integer >= 1, got {oversample!r}")
    total, half = n * oversample, n // 2
    out = _out_array(out, frames.shape[:-1] + (total,), complex)
    out[...] = 0
    out[..., carrier_bin : carrier_bin + half + 1] = frames[..., : half + 1]
    # At k = 0 the lower half wraps to the top bins: a negative start.
    out[..., carrier_bin - half : carrier_bin or None] = frames[..., half:]
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


def add_cyclic_prefix(samples, cp_samples: int) -> np.ndarray:
    """Prepend a copy of the last cp_samples samples of each block."""
    samples = np.asarray(samples)
    n = samples.shape[-1]
    if not (_is_int(cp_samples) and 0 <= cp_samples <= n):
        raise ShapeError(
            f"cp_samples = {cp_samples!r} must be an integer from 0 to the signal length {n}"
        )
    if cp_samples == 0:
        return samples
    return np.concatenate((samples[..., n - cp_samples :], samples), axis=-1)


def _carrier_turns(m, params: OfdmParams):
    """The carrier phase f_c m / f_s of sample m (an integer or an integer
    array) in turns: k_c m / (N*L), reduced mod N*L in integers before
    dividing, so a late sample carries no round-off from whole turns
    (README section 3)."""
    total = params.n_oversampled
    return params.carrier_bin * m % total / total


def _carrier(n: int, params: OfdmParams) -> np.ndarray:
    """exp(j 2 pi f_c m / f_s) for m = 0..n-1 (``_carrier_turns``)."""
    return np.exp(2j * np.pi * _carrier_turns(np.arange(n), params))


def upconvert(samples, params: OfdmParams) -> np.ndarray:
    """Shift complex baseband (..., n) to a real passband at the carrier.

    The sqrt(2) factor keeps mean power equal between the two domains.
    """
    samples = np.asarray(samples)
    return np.sqrt(2.0) * (samples * _carrier(samples.shape[-1], params)).real


def _data_bin_offsets(params: OfdmParams) -> np.ndarray:
    """Offset j from the carrier bin of each data bin, in frame order:
    0..N/2, then -N/2+1..-1 (X[0..N/2], then X[N/2+1..N-1]). When k_c + N/2
    is the Nyquist bin, slot N/2 reads the other copy of X[N/2], at -N/2;
    a plan with L = 2 raises ``ConfigError`` (README section 3).
    """
    n = params.n_subcarriers
    if params.oversample == 2:
        raise ConfigError(
            "oversample = 2 puts the band edges on DC and Nyquist, where a real "
            "passband keeps only the real part of X[N/2]; use oversample >= 3"
        )
    offsets = np.r_[0 : n // 2 + 1, -n // 2 + 1 : 0]
    if params.carrier_bin + n // 2 in _self_image_bins(params):
        offsets[n // 2] = -(n // 2)
    return offsets


@lru_cache(maxsize=None)
def _self_image_bins(params: OfdmParams) -> tuple[int, ...]:
    """The band bins of a plan that are their own conjugate image: a band
    edge at DC or at Nyquist. Most plans have none."""
    band = params.occupied_bins
    return tuple(int(k) for k in band[(2 * band) % params.n_oversampled == 0])


def demodulate_passband(samples, params: OfdmParams) -> np.ndarray:
    """Demodulate real passband blocks (..., N*L), prefix already stripped,
    to their N data bins (..., N) in frame order (``_data_bin_offsets``).

    The receiver in one transform: mix down by sqrt(2) exp(-j 2 pi f_c m /
    f_s), with the carrier phase counted from the start of the cyclic
    prefix as ``upconvert`` of a prefixed block sets it, forward-transform
    (unitary) and read the data bins. For an on-bin carrier that is the
    real FFT's bin k_c + j times sqrt(2 / (N*L)), at gain exactly 1
    unclipped (README section 3). Complex input is refused with
    ``ShapeError``.
    """
    samples = np.asarray(samples)
    _require_block(samples, params, "signal")
    if np.iscomplexobj(samples):
        raise ShapeError(
            "demodulate_passband takes real passband blocks, not complex baseband"
        )
    total = params.n_oversampled
    # The carrier phase at the first input sample, the prefix's length.
    turns = _carrier_turns(params.cp_oversampled, params)
    scale = np.sqrt(2.0 / total) * np.exp(-2j * np.pi * turns)
    bins = params.carrier_bin + _data_bin_offsets(params)
    return np.fft.rfft(samples, axis=-1)[..., bins] * scale
