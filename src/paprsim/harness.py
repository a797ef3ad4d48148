"""Experiment orchestration: PAPR and BER sweeps over scheme and clipping ratio.

Both experiments walk a deterministic grid of cells, and every random draw
comes from a stream derived from the master seed and the cell's place in the
grid, so results are a pure function of the experiment spec. A PAPR cell
draws from SeedSequence([master_seed, 0, cell_index]).

sigma, the denominator of the clipping ratio CR = A / sigma, is the RMS of
the OFDM signal, sqrt((N+1)/(N*L)): the constellation tables have unit mean
energy, ``oversample_extend`` fills N + 1 of the N*L bins (X[N/2] at both
band edges) and ``ofdm_modulate`` is unitary. A cyclic prefix repeats
samples of the same mean power. So the clip level cr * sigma is known before
any bit is drawn. The unclipped chain's gain at every data bin is exactly 1.

PAPR cell: one pass over the cell's bits, drawn in chunks of frames. Per
chunk: extend, modulate, read the unclipped PAPR, clip the envelope
magnitude at cr * sigma (phase preserved, applied at baseband just before
carrier modulation), apply the composed filter, which returns the complex
envelope of the filtered passband symbol, so no passband samples are
formed, and read the processed PAPR. Only the two PAPR vectors grow with
n_symbols. PAPR always refers to the complex envelope |x[m]|^2 of the
oversampled symbol, never to the instantaneous real passband waveform, whose
peaks carry an extra carrier-phase artifact of about 2.5 dB.

Both experiments run the same transmit chunk: one chunk of frames is
mapped, extended, modulated and, when the cell clips, clipped and filtered,
each stage writing into block buffers allocated once per cell
(``_chunk_buffers``), so only the envelope, the carrier product inside
``upconvert`` and the receiver's transform allocate arrays of a chunk's
size. A chunk takes as many frames as fit ``_CHUNK_SAMPLES`` samples of its
block length, so a chunk's complex block fits 2 MB, the size of an L2
cache. The PAPR cell runs its chunks on W threads,
W the number of CPUs the process may use (the calling thread and W - 1
helpers started for the cell), and splits the budget among them: a
thread's chunk holds 1/W of it, so the chunks in flight together hold one
budget. The threads draw the chunks' bits in chunk order, one chunk at a
time, and every row of a chunk is computed on its own (transforms,
clipping and PAPR act per row), so results do not depend on the CPU count
or the chunk length. The BER unit's loop runs on the calling thread.

BER cells come in units, one per (scheme, cr), that share one transmission.
A unit draws its bits once and loops over chunks of them. Each chunk is
transmitted, clipped at cr * sigma and filtered as in a PAPR cell, then
given its cyclic prefix and upconverted. The chunk keeps the mean square
of each passband block, prefix included, and receives the blocks without
noise: strip the prefix and demodulate, one real FFT per block read at the
data bins (``demodulate_passband``). Only the bits, the N data symbols of
each block and its mean square grow with the unit; the transmit power is
the mean of the per-block mean squares. For an on-bin
carrier, mix-down and the FFT demodulator are diagonal in the DFT, so the
receiver is linear and reads only the N data bins. White real passband
noise of variance sigma_n^2 therefore reaches each data bin as circular
complex Gaussian noise of variance 2 sigma_n^2, independent across bins
(prefix noise is discarded). Each Eb/N0 point calibrates sigma_n
from the measured transmit power, draws only that bin noise, adds it to the
noise-free symbols, divides by the closed-form gain clip_attenuation(cr),
or by 1 unclipped, and slices. The unit draws from
SeedSequence([master_seed, 1, unit_index]).spawn(1 + len(ebn0_grid_db)):
child 0 for the bits, child 1 + i for the noise at Eb/N0 point i.
"""
from __future__ import annotations

import csv
import math
import os
import threading
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import fir_design
from .channel import add_awgn, noise_sigma
from .clip_filter import clip_baseband, composed_filter, default_hpf_spec
from .constellation import SCHEME_NAMES, ModScheme, demap_symbols, map_bits
from .errors import ConfigError, ExperimentError, ShapeError
from .metrics import CcdfCurve, _papr_db_rows, ccdf_quantile, estimate_ccdf
from .ofdm_chain import (
    OfdmParams,
    _data_bin_offsets,
    _require_block,
    _require_int,
    add_cyclic_prefix,
    demodulate_passband,
    ofdm_modulate,
    oversample_extend,
    upconvert,
)

# The harness calls the layer functions through the stage names that
# perfbench/interactions.json lists, because perfbench/spans.py times a stage
# by wrapping that module-level name. Each name is bound to the public
# function itself, so every stage keeps one implementation. The bindings go
# once the stage table names the public functions (ROADMAP item 1).
_map_rows = map_bits
_extend_rows = oversample_extend
_modulate_rows = ofdm_modulate
_clip_magnitude_rows = clip_baseband
_upconvert_rows = upconvert
_composed_rows = composed_filter
_demodulate_rows = demodulate_passband
_demap_rows = demap_symbols
# Uncalled: the receiver has no low-pass (``_filter_rows``), and the
# bin-domain BER unit adds no passband AWGN and runs no per-cell receiver.
# Bound so that their traced stages report 0 calls instead of going missing.
_filter_rows = demodulate_passband
_awgn_rows = add_awgn
_receive_bits = demodulate_passband

#: Default CCDF threshold grid (dB); 0.05 dB steps bound the quantile
#: interpolation error well below the experiment tolerances.
CCDF_THRESHOLDS_DB = np.arange(0.0, 25.0 + 1e-9, 0.05)

_PAIRS = {4: ("qpsk", "qam"), 8: ("8psk", "8qam"), 16: ("16psk", "16qam"), 32: ("32psk", "32qam")}

#: Samples per chunk of every chunked loop: a complex chunk is 2 MB.
_CHUNK_SAMPLES = 2**17


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of a PAPR/BER experiment; defaults mirror the
    reference parameter set (128 subcarriers, 8x oversampling, 1 MHz band at
    a 2 MHz carrier, prefix 32, CR sweep 0.8 to 1.6)."""

    params: OfdmParams = OfdmParams()
    schemes: tuple[ModScheme, ...] = tuple(ModScheme.from_name(n) for n in SCHEME_NAMES)
    cr_values: tuple[float, ...] = (0.8, 1.0, 1.2, 1.4, 1.6)
    ccdf_read_point: float = 1e-3
    n_symbols: int = 10_000
    ebn0_grid_db: tuple[float, ...] = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
    bits_per_point: int = 200_000
    seed: int = 12345
    hpf_num_taps: int = 81
    hpf_stop_edge: float | None = None
    hpf_pass_edge: float | None = None

    def __post_init__(self):
        if not self.schemes:
            raise ConfigError("schemes must be non-empty")
        if len({s.name for s in self.schemes}) != len(self.schemes):
            raise ConfigError("schemes must be unique")
        if not self.cr_values:
            raise ConfigError("cr_values must be non-empty")
        if not all(0 < cr < math.inf for cr in self.cr_values):
            raise ConfigError("cr_values must be positive and finite")
        # Cells are keyed by value and curve files by the {cr:g} tag, so a
        # repeated value would silently collapse its cells into one.
        tags = [f"{cr:g}" for cr in self.cr_values]
        if len(set(tags)) != len(tags):
            raise ConfigError(f"cr_values must be distinct to 6 significant digits, got {tags}")
        _require_int("n_symbols", self.n_symbols, 1)
        if self.n_symbols < 1000:
            raise ConfigError("n_symbols must be >= 1000 for CCDF runs")
        if not 0 < self.ccdf_read_point < 1:
            raise ConfigError("ccdf_read_point must lie strictly between 0 and 1")
        # Below ~10 expected exceedances the quantile is only an interpolation
        # toward the sample maximum.
        if self.n_symbols * self.ccdf_read_point < 10 - 1e-9:
            raise ConfigError(
                f"n_symbols * ccdf_read_point = {self.n_symbols * self.ccdf_read_point:g} "
                "must be >= 10 expected exceedances; raise n_symbols or the read point"
            )
        _require_int("bits_per_point", self.bits_per_point, 1)
        _require_int("seed", self.seed, 0)
        if not all(np.isfinite(v) for v in self.ebn0_grid_db):
            raise ConfigError("ebn0_grid_db values must be finite")
        if len(set(self.ebn0_grid_db)) != len(self.ebn0_grid_db):
            raise ConfigError(f"ebn0_grid_db values must be distinct, got {self.ebn0_grid_db}")
        # Fail fast on a band plan that the high-pass or the receiver cannot serve.
        default_hpf_spec(
            self.params, self.hpf_num_taps, self.hpf_stop_edge, self.hpf_pass_edge
        )
        _data_bin_offsets(self.params)


def experiment_hpf(spec: ExperimentSpec) -> fir_design.FirFilter:
    """Design the composed filter's high-pass once per experiment."""
    return fir_design.design_equiripple(
        default_hpf_spec(spec.params, spec.hpf_num_taps, spec.hpf_stop_edge, spec.hpf_pass_edge)
    )


@dataclass(frozen=True)
class PaprRow:
    scheme: str
    cr: float
    papr_db_clipped_filtered: float
    papr_db_unclipped: float
    difference_db: float | None  # same-order PSK value minus QAM value


@dataclass(frozen=True)
class BerRow:
    scheme: str
    cr: float
    ebn0_db: float
    bit_errors: int
    bits_total: int
    ber: float
    difference: float | None  # same-order PSK BER minus QAM BER


@dataclass(frozen=True)
class PaprCurves:
    clipped: CcdfCurve
    unclipped: CcdfCurve


@dataclass(frozen=True)
class PaprExperimentResult:
    rows: tuple[PaprRow, ...]
    curves: dict


@dataclass(frozen=True)
class BerExperimentResult:
    rows: tuple[BerRow, ...]


def _worker_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _cell_rng(seed: int, kind: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, kind, index]))


def _random_bits(rng: np.random.Generator, n_frames: int, bits_per_frame: int) -> np.ndarray:
    return rng.integers(0, 2, size=(n_frames, bits_per_frame), dtype=np.uint8)


def _chunk_frames(block_len: int) -> int:
    """Frames per chunk for blocks of ``block_len`` samples: the share of
    ``_CHUNK_SAMPLES``, rounded down to an even count, at least 2.

    An even chunk of rows of N * log2(M) bits (N even) is a multiple of 4
    bits, so chunked ``_random_bits`` draws concatenate to one draw of all
    the rows: numpy draws a bounded uint8 in {0, 1} from one byte of a
    32-bit word, with no rejection, and each call starts on a fresh word.
    The PAPR cell's W threads each take chunks of ``_chunk_frames(N*L*W)``
    frames, so the chunks in flight together stay within one budget; the
    draws, and so the results, are the same for every W.
    """
    return max(2, _CHUNK_SAMPLES // block_len // 2 * 2)


def _clip_level(params: OfdmParams, cr: float) -> float:
    """Clip amplitude A = cr * sigma, sigma = sqrt((N+1)/(N*L)) the RMS of
    the OFDM signal (see the module docstring)."""
    n = params.n_subcarriers
    return cr * math.sqrt((n + 1) / (n * params.oversample))


def envelope_magnitude(samples: np.ndarray, params: OfdmParams) -> np.ndarray:
    """|complex envelope| of in-band complex baseband blocks (..., N*L), such
    as ``composed_filter``'s output; PAPR of an OFDM symbol is defined on it.

    The envelope is |y|, with the band-edge bins that are their own
    conjugate image weighted as the analytic signal of ``upconvert(y)``
    weights them: an edge at Nyquist is left out, and an edge at DC counts
    twice its real part. Each such bin is one tone whose coefficient is a
    single DFT bin, so the correction is O(N*L) and runs only on those
    plans. Returns a real (..., N*L) array.
    """
    samples = np.asarray(samples)
    _require_block(samples, params, "signal")
    if not np.iscomplexobj(samples):
        raise ShapeError("envelope_magnitude takes complex baseband blocks, not passband")
    total = params.n_oversampled
    band = params.occupied_bins
    for k in band[(2 * band) % total == 0]:
        tone = np.exp(2j * np.pi * (k - params.carrier_bin) * np.arange(total) / total)
        coefficient = (samples @ tone.conj())[..., None] / total
        samples = samples + (np.conj(coefficient) if k == 0 else -coefficient) * tone
    return np.abs(samples)


def clip_attenuation(cr: float) -> float:
    """Bussgang gain of a magnitude clip on a complex-Gaussian OFDM envelope.

    The Rayleigh-envelope soft limiter attenuates the useful signal by
    alpha = 1 - exp(-CR^2) + (sqrt(pi)/2) CR erfc(CR); the in-band residue
    after filtering is distortion uncorrelated with the data. For an improper
    constellation (rectangular 8-QAM, E[X^2] != 0) that distortion is
    improper too: its variance is unequal on I and Q. Matches the measured
    data-aided gain of the simulated chain to about 0.2 percent.
    """
    return 1.0 - math.exp(-cr * cr) + (math.sqrt(math.pi) / 2.0) * cr * math.erfc(cr)


def _add_bin_noise(symbols: np.ndarray, sigma_n: float, rng: np.random.Generator) -> np.ndarray:
    """Return received data symbols (..., N) plus the data-bin read of white
    real passband noise of variance sigma_n^2: circular complex Gaussian
    noise of variance 2 sigma_n^2 at every bin. Draws 2N standard normals
    per row; sigma_n = 0 draws nothing."""
    if sigma_n == 0:
        return symbols.copy()
    shape = symbols.shape[:-1] + (2 * symbols.shape[-1],)
    noisy = rng.standard_normal(shape).view(complex)
    noisy *= sigma_n
    noisy += symbols
    return noisy


def _noise_free_unit(
    params: OfdmParams,
    scheme: ModScheme,
    cr: float | None,
    hpf: fir_design.FirFilter | None,
    min_bits: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float, np.ndarray]:
    """The shared work of a BER unit: draw the bit rows, transmit them
    (cr=None skips clipping and filtering) and receive them without noise,
    one chunk at a time (``_ber_chunk``). Returns (bits, transmit power,
    received symbols); the power is the mean square of the passband
    samples, prefix included, that the channel is calibrated to, taken as
    the mean of the per-block mean squares. Unclipped, the symbols are the
    mapped symbols."""
    if cr is not None and hpf is None:
        raise ConfigError("clipping requested but no high-pass filter supplied")
    amplitude = None if cr is None else _clip_level(params, cr)
    bits_per_frame = params.n_subcarriers * scheme.bits_per_symbol
    n_frames = max(1, math.ceil(min_bits / bits_per_frame))
    bits = _random_bits(rng, n_frames, bits_per_frame)
    step = _chunk_frames(params.n_oversampled + params.cp_oversampled)
    buffers = _chunk_buffers(min(step, n_frames), params)
    received = np.empty((n_frames, params.n_subcarriers), dtype=complex)
    block_power = np.empty(n_frames)
    for start in range(0, n_frames, step):
        rows = slice(start, start + step)
        _ber_chunk(bits[rows], scheme, params, amplitude, hpf, buffers,
                   received[rows], block_power[rows])
    return bits, float(np.mean(block_power)), received


def _ber_cells(
    params: OfdmParams,
    scheme: ModScheme,
    cr: float | None,
    ebn0_grid_db,
    min_bits: int,
    hpf: fir_design.FirFilter | None,
    entropy: list[int],
):
    """Yield (bit_errors, bits_total) for each Eb/N0 point of one (scheme,
    cr) unit. cr=None skips clipping and filtering, an Eb/N0 of None is a
    noiseless channel. SeedSequence(entropy) spawns one child per draw:
    child 0 for the bits, child 1 + i for the noise at Eb/N0 point i.

    Nothing runs until the first value is asked for; the unit's transmit
    and noise-free receive then run once, before the first point.
    """
    seeds = np.random.SeedSequence(entropy).spawn(1 + len(ebn0_grid_db))
    bits, power, clean = _noise_free_unit(
        params, scheme, cr, hpf, min_bits, np.random.default_rng(seeds[0])
    )
    gain = clip_attenuation(cr) if cr is not None else 1.0
    for ebn0_db, seed in zip(ebn0_grid_db, seeds[1:]):
        sigma_n = 0.0 if ebn0_db is None else noise_sigma(params, scheme, ebn0_db, power)
        rx = _add_bin_noise(clean, sigma_n, np.random.default_rng(seed))
        rx /= gain
        rx_bits = _demap_rows(rx, scheme)
        yield int(np.count_nonzero(bits != rx_bits)), bits.size


def _chunk_buffers(frames: int, params: OfdmParams) -> tuple[np.ndarray, ...]:
    """One thread's buffers for chunks of up to ``frames`` frames, cut from
    one complex allocation into three flat views: the mapped symbols, the
    block and the scratch, which is wide enough for a prefixed block.
    ``_rows`` gives a chunk its (frames, width) view of a buffer."""
    widths = (params.n_subcarriers, params.n_oversampled,
              params.n_oversampled + params.cp_oversampled)
    ends = np.cumsum([frames * width for width in widths])
    return tuple(np.split(np.empty(ends[-1], complex), ends[:-1]))


def _rows(buffer: np.ndarray, dtype, count: int, width: int) -> np.ndarray:
    """The first count * width items of a flat buffer viewed as ``dtype``,
    shaped (count, width)."""
    return buffer.view(dtype)[: count * width].reshape(count, width)


def _baseband_chunk(
    bits: np.ndarray, scheme: ModScheme, params: OfdmParams, buffers: tuple[np.ndarray, ...],
) -> np.ndarray:
    """Map, extend and modulate the frames ``bits`` holds; returns their
    baseband, the buffers' block (the inverse transform runs in place)."""
    count = bits.shape[0]
    symbols = _map_rows(bits, scheme, out=_rows(buffers[0], complex, count, params.n_subcarriers))
    block = _rows(buffers[1], complex, count, params.n_oversampled)
    return _modulate_rows(_extend_rows(symbols, params.oversample, out=block), params, out=block)


def _clip_filter_chunk(
    baseband: np.ndarray, amplitude: float, params: OfdmParams, hpf: fir_design.FirFilter,
    scratch: np.ndarray,
) -> np.ndarray:
    """Clip a chunk's baseband into ``scratch`` and write the composed
    filter's output back over the baseband; returns it. So the clip reads
    the block and writes the scratch, never its own input."""
    clipped = _clip_magnitude_rows(baseband, amplitude, out=_rows(scratch, complex, *baseband.shape))
    return _composed_rows(clipped, params, hpf, out=baseband)


def _papr_chunk(
    bits: np.ndarray, scheme: ModScheme, params: OfdmParams, amplitude: float,
    hpf: fir_design.FirFilter, buffers: tuple[np.ndarray, ...],
    unclipped_papr: np.ndarray, processed_papr: np.ndarray,
) -> None:
    """One chunk of a PAPR cell, on one of the cell's threads: writes the
    unclipped and the clipped-and-filtered PAPR of the frames ``bits``
    holds into the two views.

    Every stage up to the composed filter writes into the thread's
    ``buffers``. Before the clip writes the scratch, its bytes serve as the
    real |x|^2 array. The envelope stage is called as
    ``envelope_magnitude(samples, params)``, the form perfbench's self-test
    substitutes, so it returns a new |y| array, which is squared in place.
    """
    baseband = _baseband_chunk(bits, scheme, params, buffers)
    power = _rows(buffers[2], float, *baseband.shape)
    # The unclipped symbol is in-band by construction, so its envelope is
    # the baseband signal itself.
    unclipped_papr[:] = _papr_db_rows(np.square(np.abs(baseband, out=power), out=power))
    filtered = _clip_filter_chunk(baseband, amplitude, params, hpf, buffers[2])
    envelope = envelope_magnitude(filtered, params)
    processed_papr[:] = _papr_db_rows(np.square(envelope, out=envelope))


def _ber_chunk(
    bits: np.ndarray, scheme: ModScheme, params: OfdmParams, amplitude: float | None,
    hpf: fir_design.FirFilter | None, buffers: tuple[np.ndarray, ...],
    received: np.ndarray, block_power: np.ndarray,
) -> None:
    """One chunk of a BER unit: transmits the frames ``bits`` holds
    (amplitude None skips clipping and filtering), then writes each block's
    noise-free data symbols into ``received`` and the mean square of its
    passband samples, prefix included, into ``block_power``.

    The baseband and the filtered block are in the block buffer, as in a
    PAPR chunk. The prefixed block is written into the scratch, its
    passband into the block's bytes as floats and the passband's squares
    into the scratch's bytes.
    """
    count, cp = bits.shape[0], params.cp_oversampled
    width = params.n_oversampled + cp
    baseband = _baseband_chunk(bits, scheme, params, buffers)
    if amplitude is not None:
        baseband = _clip_filter_chunk(baseband, amplitude, params, hpf, buffers[2])
    prefixed = add_cyclic_prefix(baseband, cp, out=_rows(buffers[2], complex, count, width))
    passband = _upconvert_rows(prefixed, params, out=_rows(buffers[1], float, count, width))
    squares = np.square(passband, out=_rows(buffers[2], float, count, width))
    np.mean(squares, axis=-1, out=block_power)
    received[:] = _demodulate_rows(passband[:, cp:], params)


def _papr_cell(
    spec: ExperimentSpec, scheme: ModScheme, cr: float, rng: np.random.Generator,
    hpf: fir_design.FirFilter,
):
    """Clipped-and-filtered and unclipped PAPR CCDFs of one cell, streamed
    in one pass over the bits ``rng`` draws (see the module docstring).

    The chunks run on W threads, W the number of CPUs the process may use:
    the calling thread and W - 1 helper threads started for the cell. Each
    thread has its own buffers (``_chunk_buffers``) and loops: under one
    lock it takes the next chunk and draws that chunk's bits, so the draws
    follow chunk order whatever W is; then it runs the chunk
    (``_papr_chunk``) into disjoint rows of the two PAPR vectors. A failing
    chunk stops the other threads before their next chunk, and every helper
    has finished when the cell returns or raises.
    """
    # Imported here, not with the module: it costs milliseconds.
    from concurrent.futures import ThreadPoolExecutor

    params = spec.params
    n = spec.n_symbols
    bits_per_frame = params.n_subcarriers * scheme.bits_per_symbol
    amplitude = _clip_level(params, cr)
    workers = _worker_count()
    step = _chunk_frames(params.n_oversampled * workers)
    starts = iter(range(0, n, step))
    draw = threading.Lock()
    stop = threading.Event()
    unclipped_papr = np.empty(n)
    processed_papr = np.empty(n)

    def run_chunks(buffers):
        try:
            while True:
                with draw:
                    start = next(starts, None)
                    if start is None or stop.is_set():
                        return
                    bits = _random_bits(rng, min(step, n - start), bits_per_frame)
                rows = slice(start, start + bits.shape[0])
                _papr_chunk(bits, scheme, params, amplitude, hpf, buffers,
                            unclipped_papr[rows], processed_papr[rows])
        except BaseException:
            stop.set()
            raise

    buffers = [_chunk_buffers(step, params) for _ in range(min(workers, math.ceil(n / step)))]
    with ThreadPoolExecutor(max(len(buffers) - 1, 1), thread_name_prefix="paprsim-papr") as pool:
        tasks = [pool.submit(run_chunks, own) for own in buffers[1:]]
        try:
            run_chunks(buffers[0])
        finally:
            # Once the calling thread's loop ends, every chunk is taken or
            # the cell has failed, so a helper that has not started has
            # nothing left to do.
            stop.set()
            for task in tasks:
                task.cancel()
    for task in tasks:  # leaving the with block joined the helpers
        if not task.cancelled():
            task.result()

    clipped_curve = estimate_ccdf(processed_papr, CCDF_THRESHOLDS_DB)
    unclipped_curve = estimate_ccdf(unclipped_papr, CCDF_THRESHOLDS_DB)
    return clipped_curve, unclipped_curve


def run_papr_experiment(spec: ExperimentSpec, progress=None) -> PaprExperimentResult:
    """PAPR CCDF sweep over every (scheme, cr) cell of the spec."""
    hpf = experiment_hpf(spec)
    quantiles: dict[tuple[str, float], tuple[float, float]] = {}
    curves: dict[tuple[str, float], PaprCurves] = {}
    cells = [(scheme, cr) for scheme in spec.schemes for cr in spec.cr_values]
    for index, (scheme, cr) in enumerate(cells):
        if progress:
            progress(f"papr {scheme.name} cr={cr:g}")
        try:
            clipped_curve, unclipped_curve = _papr_cell(
                spec, scheme, cr, _cell_rng(spec.seed, 0, index), hpf
            )
            q_clip = ccdf_quantile(clipped_curve, spec.ccdf_read_point)
            q_unclip = ccdf_quantile(unclipped_curve, spec.ccdf_read_point)
        except Exception as exc:
            raise ExperimentError(
                f"papr cell failed (scheme={scheme.name}, cr={cr:g}): {exc}"
            ) from exc
        quantiles[(scheme.name, cr)] = (q_clip, q_unclip)
        curves[(scheme.name, cr)] = PaprCurves(clipped_curve, unclipped_curve)

    rows = []
    for scheme in spec.schemes:
        for cr in spec.cr_values:
            q_clip, q_unclip = quantiles[(scheme.name, cr)]
            rows.append(
                PaprRow(
                    scheme=scheme.name,
                    cr=cr,
                    papr_db_clipped_filtered=q_clip,
                    papr_db_unclipped=q_unclip,
                    difference_db=_pair_difference(
                        quantiles, scheme, cr, value=lambda entry: entry[0]
                    ),
                )
            )
    return PaprExperimentResult(rows=tuple(rows), curves=curves)


def _pair_difference(table: dict, scheme: ModScheme, *key, value):
    """PSK minus QAM of the same order at the same grid point, if both exist."""
    psk_name, qam_name = _PAIRS[scheme.order]
    psk_key, qam_key = (psk_name, *key), (qam_name, *key)
    if psk_key in table and qam_key in table:
        return value(table[psk_key]) - value(table[qam_key])
    return None


def simulate_chain_ber(
    params: OfdmParams,
    scheme: ModScheme,
    *,
    ebn0_db: float | None = None,
    cr: float | None = None,
    min_bits: int = 200_000,
    seed: int = 0,
    hpf: fir_design.FirFilter | None = None,
):
    """Standalone end-to-end BER run, mainly for calibration and validation.

    Returns (bit_errors, bits_total). With cr=None and ebn0_db=None this is
    the noiseless loopback of the full modulation chain. It is one BER unit
    with a single Eb/N0 point (see the module docstring), seeded by
    SeedSequence([seed, 2, 0]).spawn(2): child 0 for the bits, child 1 for
    the noise.
    """
    _require_int("seed", seed, 0)
    _require_int("min_bits", min_bits, 1)
    ((errors, total),) = _ber_cells(params, scheme, cr, (ebn0_db,), min_bits, hpf, [seed, 2, 0])
    return errors, total


def run_ber_experiment(spec: ExperimentSpec, progress=None) -> BerExperimentResult:
    """BER sweep over every (scheme, cr, ebn0) cell of the spec.

    ``progress`` is called once per cell, in cell order, before the cell's
    work; a (scheme, cr) unit's shared transmit and noise-free receive run
    as part of its first cell.
    """
    hpf = experiment_hpf(spec)
    results: dict[tuple[str, float, float], tuple[int, int]] = {}
    units = [(scheme, cr) for scheme in spec.schemes for cr in spec.cr_values]
    for index, (scheme, cr) in enumerate(units):
        cells = _ber_cells(
            spec.params,
            scheme,
            cr,
            spec.ebn0_grid_db,
            spec.bits_per_point,
            hpf,
            [spec.seed, 1, index],
        )
        for ebn0 in spec.ebn0_grid_db:
            if progress:
                progress(f"ber {scheme.name} cr={cr:g} ebn0={ebn0:g} dB")
            try:
                results[(scheme.name, cr, ebn0)] = next(cells)
            except Exception as exc:
                raise ExperimentError(
                    f"ber cell failed (scheme={scheme.name}, cr={cr:g}, ebn0={ebn0:g}): {exc}"
                ) from exc

    rows = []
    for scheme in spec.schemes:
        for cr in spec.cr_values:
            for ebn0 in spec.ebn0_grid_db:
                errors, total = results[(scheme.name, cr, ebn0)]
                rows.append(
                    BerRow(
                        scheme=scheme.name,
                        cr=cr,
                        ebn0_db=ebn0,
                        bit_errors=errors,
                        bits_total=total,
                        ber=errors / total,
                        difference=_pair_difference(
                            results, scheme, cr, ebn0, value=lambda e: e[0] / e[1]
                        ),
                    )
                )
    return BerExperimentResult(rows=tuple(rows))


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def emit_csv(rows, path, columns=None) -> Path:
    """Write dataclass rows to a CSV file with full-precision numbers.

    Output is deterministic: fixed column order, repr-format floats (exact
    on round trip), UTF-8, no timestamps.
    """
    path = Path(path)
    if columns is None:
        if not rows:
            raise ConfigError("columns must be given explicitly for an empty row set")
        columns = [f.name for f in fields(rows[0])]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(_format_cell(getattr(row, name)) for name in columns)
    return path


def write_ccdf_csv(curve: CcdfCurve, path) -> Path:
    """Two-column plot data (threshold_db, prob_exceed) plus the sample count."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold_db", "prob_exceed", "sample_count"])
        for t, p in zip(curve.thresholds_db, curve.prob_exceed):
            writer.writerow([_format_cell(float(t)), _format_cell(float(p)), curve.sample_count])
    return path


def write_ber_curve_csv(points, path) -> Path:
    """Plot data for one (scheme, cr): rows of (ebn0_db, ber, sample_count)."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ebn0_db", "ber", "sample_count"])
        for ebn0, ber, total in points:
            writer.writerow([_format_cell(float(ebn0)), _format_cell(float(ber)), total])
    return path
