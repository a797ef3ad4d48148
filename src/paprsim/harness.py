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
chunk: extend, modulate, take |x| once, turn it into the clip's real
factor A / max(|x|, A), A = cr * sigma (the magnitude clip with phase
preserved, applied at baseband just before carrier modulation), apply the
composed filter to the clipped real passband 2 Re(x c) * factor, which
takes one real FFT and one inverse FFT and returns the complex envelope of
the filtered passband symbol, and read the processed PAPR; the unclipped
PAPR is read from the kept |x|. So a chunk makes two complex transforms
and one real one. Only the two PAPR vectors grow with n_symbols. PAPR
always refers to the complex envelope |x[m]|^2 of the oversampled symbol,
never to the instantaneous real passband waveform, whose peaks carry an
extra carrier-phase artifact of about 2.5 dB.

Both experiments transmit a chunk of frames the same way: map, extend,
modulate and, when the cell clips, clip and run the composed filter's
forward half (``_clipped_band``, the one home of that sequence), each
stage writing into block buffers allocated once per cell
(``_chunk_buffers``), so only the filter's real FFT and the envelope
allocate arrays of a chunk's size. The buffers are load-bearing: fresh
block-sized arrays in every chunk cost page faults and system time that
made a PAPR experiment about 1.45x slower on two CPUs (see the README).
The composed filter's fold (``_composed_fold``) is computed once per cell
or unit too. A chunk takes as many frames as fit ``_CHUNK_SAMPLES``
samples of its block length, so a chunk's complex block fits 2 MB, the
size of an L2 cache.

One runner, ``_on_chunks``, runs every chunk loop: the PAPR cell's, the
BER unit's transmit and each of its Eb/N0 points. It hands out slices of
rows in row order to the calling thread and helpers started for the
loop, one thread per full budget of the cell's or unit's block samples,
up to W, the number of CPUs the process may use, and returns what each
chunk computed. So a loop of under two budgets stays on the calling
thread. A thread's chunk holds 1/T of the budget, T the loop's thread
count, so the chunks in flight together hold one budget. The PAPR cell's
threads draw the chunks' bits in row order, one chunk at a time; the BER
unit draws its bits up front and its normals the same way as its
transmit chunks. Every row of a chunk is
computed on its own (transforms, clipping, PAPR and the slicer act per
row), so results depend on neither W nor the chunk length.

BER cells come in units, one per (scheme, cr), that share one transmission.
A unit draws its bits once and loops over chunks of them (``_ber_chunk``).
Each chunk's transmit ends at the band bins of each block's complex
envelope: clipped at cr * sigma, the composed filter's forward half, as in
a PAPR cell; unclipped, the extended frame. For an on-bin carrier,
upconversion, mix-down and the FFT demodulator are diagonal in the DFT, so
the literal chain (cyclic prefix, ``upconvert``, ``demodulate_passband``),
the test oracle, reduces to two reads of those bins: the noise-free data
symbols, and one inverse real FFT to the passband symbol, whose squares,
and those of its last cp*L samples, which the prefix repeats, give the
mean square of each prefixed passband block. So a clipped chunk makes one
inverse FFT, one real FFT and one inverse real FFT, and an unclipped chunk
one inverse real FFT. Only the bits, the N data symbols of each block and
its mean square grow with the unit; the transmit power is the mean of the
per-block mean squares. The receiver is linear and reads only the N data
bins. White real passband
noise of variance sigma_n^2 therefore reaches each data bin as circular
complex Gaussian noise of variance 2 sigma_n^2, independent across bins
(prefix noise is discarded). The unit draws that bin noise once, as unit
normals z, 2N standard normals a frame, alongside its transmit. Each
Eb/N0 point calibrates sigma_n from the measured transmit power and loops
over chunks of the noise-free symbols: it scales the chunk's rows of z by
sigma_n, adds the symbols, divides by the closed-form gain
clip_attenuation(cr), or by 1 unclipped, slices and counts the bit
errors. The unit draws from SeedSequence([master_seed, 1,
unit_index]).spawn(2): child 0 for the bits, child 1 for z. Every point
of a unit scales the same z (common random numbers), so each cell has
the distribution it would have with a draw of its own, but a unit's
cells are correlated and are not independent samples of the BER curve.
"""
from __future__ import annotations

import csv
import math
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import fir_design
from .channel import add_awgn, noise_sigma
from .clip_filter import (
    _clip_factor,
    _composed_fold,
    _filter_forward,
    _filter_inverse,
    default_hpf_spec,
)
from .constellation import SCHEME_NAMES, ModScheme, demap_symbols, map_bits
from .errors import ConfigError, ExperimentError, ShapeError
from .metrics import CcdfCurve, _papr_db_rows, ccdf_quantile, estimate_ccdf
from .ofdm_chain import (
    OfdmParams,
    _data_bin_offsets,
    _is_real,
    _require_block,
    _require_int,
    _self_image_bins,
    demodulate_passband,
    ofdm_modulate,
    oversample_extend,
    upconvert,
)

# The harness calls the layer functions through the stage names that
# perfbench/interactions.json lists, because perfbench/spans.py times a stage
# by wrapping that module-level name. Each name is bound to the public
# function itself, or for the clip and the composed filter to the kernel
# the public function runs (the clip's real factor; the filter's forward
# half, given its fold), so every stage keeps one implementation. The
# bindings go once the stage table names the public functions (ROADMAP
# item 1).
_map_rows = map_bits
_extend_rows = oversample_extend
_modulate_rows = ofdm_modulate
_clip_magnitude_rows = _clip_factor
_composed_rows = _filter_forward
_demap_rows = demap_symbols
# Uncalled: the receiver has no low-pass (``_filter_rows``), the bin-domain
# BER unit adds no passband AWGN and runs no per-cell receiver, and its
# transmit ends at the band bins, so it neither upconverts nor demodulates.
# Bound so that their traced stages report 0 calls instead of going missing.
_filter_rows = demodulate_passband
_awgn_rows = add_awgn
_receive_bits = demodulate_passband
_upconvert_rows = upconvert
_demodulate_rows = demodulate_passband

#: Default CCDF threshold grid (dB); 0.05 dB steps bound the quantile
#: interpolation error well below the experiment tolerances.
CCDF_THRESHOLDS_DB = np.arange(0.0, 25.0 + 1e-9, 0.05)

#: Each scheme's (PSK, QAM) pair of its order; SCHEME_NAMES lists the pairs in turn.
_PAIRS = {name: pair for pair in zip(SCHEME_NAMES[::2], SCHEME_NAMES[1::2]) for name in pair}

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
        if not isinstance(self.params, OfdmParams):
            raise ConfigError(f"params must be an OfdmParams, got {self.params!r}")
        # Stored as tuples, so a validated spec cannot change and is hashable.
        for name in ("schemes", "cr_values", "ebn0_grid_db"):
            value = getattr(self, name)
            if isinstance(value, str) or not isinstance(value, Sequence):
                raise ConfigError(f"{name} must be a sequence, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        if not self.schemes:
            raise ConfigError("schemes must be non-empty")
        if not all(isinstance(s, ModScheme) for s in self.schemes):
            raise ConfigError(f"schemes must hold ModScheme values, got {self.schemes!r}")
        if len({s.name for s in self.schemes}) != len(self.schemes):
            raise ConfigError("schemes must be unique")
        if not self.cr_values:
            raise ConfigError("cr_values must be non-empty")
        if not all(_is_real(cr) and 0 < cr < math.inf for cr in self.cr_values):
            raise ConfigError(f"cr_values must be positive and finite, got {self.cr_values!r}")
        # Cells are keyed by value and curve files by the {cr:g} tag, so a
        # repeated value would silently collapse its cells into one.
        tags = [f"{cr:g}" for cr in self.cr_values]
        if len(set(tags)) != len(tags):
            raise ConfigError(f"cr_values must be distinct to 6 significant digits, got {tags}")
        _require_int("n_symbols", self.n_symbols, 1)
        if self.n_symbols < 1000:
            raise ConfigError("n_symbols must be >= 1000 for CCDF runs")
        if not (_is_real(self.ccdf_read_point) and 0 < self.ccdf_read_point < 1):
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
        if not all(_is_real(v) and math.isfinite(v) for v in self.ebn0_grid_db):
            raise ConfigError(
                f"ebn0_grid_db values must be finite numbers, got {self.ebn0_grid_db!r}"
            )
        if len(set(self.ebn0_grid_db)) != len(self.ebn0_grid_db):
            raise ConfigError(f"ebn0_grid_db values must be distinct, got {self.ebn0_grid_db}")
        # Fail fast on a band plan that the high-pass or the receiver cannot serve.
        default_hpf_spec(
            self.params, self.hpf_num_taps, self.hpf_stop_edge, self.hpf_pass_edge
        )
        _data_bin_offsets(self.params)


@lru_cache(maxsize=1)
def experiment_hpf(spec: ExperimentSpec) -> fir_design.FirFilter:
    """The composed filter's high-pass for ``spec``, designed once per spec.

    The last spec's design is cached, so ``run_papr_experiment`` and
    ``run_ber_experiment`` of one spec, or of equal specs, share it; another
    spec designs again, even one with the same design target. A design
    that raises is not kept.
    """
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


def _chunking(frames: int, block_len: int) -> tuple[int, int]:
    """(threads, frames per chunk) of a loop over ``frames`` blocks of
    ``block_len`` samples: one thread per full ``_CHUNK_SAMPLES`` budget of
    the blocks, at most ``_worker_count()``, at least one, and no more than
    chunks. Each thread takes chunks of 1/threads of the budget, so the
    chunks in flight together hold one budget."""
    # A loop of under two budgets stays on the calling thread: split over
    # two threads, a loop of one or two budgets takes longer than on one.
    threads = max(1, min(_worker_count(), frames * block_len // _CHUNK_SAMPLES))
    step = _chunk_frames(block_len * threads)
    return min(threads, math.ceil(frames / step)), step


def _on_chunks(frames: int, step: int, work, *, claim=None, threads: int) -> list:
    """Call ``work(thread, rows, claimed)`` for every chunk of range(frames),
    ``rows`` the chunk's slice(start, min(start + step, frames)), on
    min(threads, chunks) threads: the calling thread, numbered 0, and
    helper threads numbered 1, 2, ... started for the call, so that
    ``thread`` can pick buffers of its own. Returns ``work``'s results, one
    per chunk, in the order the chunks finished.

    The threads take the chunks in row order under one lock.
    ``claim(rows)``, if given, runs under that lock and its result is passed
    as ``claimed`` (None without ``claim``), so the claims follow row order
    whatever the thread count. A failure stops the other threads before
    their next chunk. Every helper has finished when the call returns or
    raises, and it raises the first failure.
    """
    chunks = (slice(start, min(start + step, frames)) for start in range(0, frames, step))
    lock = threading.Lock()
    stop = threading.Event()
    failures, results = [], []

    def loop(thread):
        try:
            while True:
                with lock:
                    rows = next(chunks, None)
                    if rows is None or stop.is_set():
                        return
                    claimed = None if claim is None else claim(rows)
                results.append(work(thread, rows, claimed))
        except BaseException as exc:  # raised again by the calling thread below
            stop.set()
            failures.append(exc)

    helpers = [threading.Thread(target=loop, args=(thread,), name=f"paprsim-runner-{thread}")
               for thread in range(1, min(threads, math.ceil(frames / step)))]
    for helper in helpers:
        helper.start()
    try:
        loop(0)
    finally:
        # Once the calling thread's loop ends, every chunk is taken or one
        # has failed; the flag also stops the helpers if the join is
        # interrupted.
        stop.set()
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[0]
    return results


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
    A loop on T threads takes chunks of ``_chunk_frames(block_len * T)``
    frames (``_chunking``), so the chunks in flight together stay within
    one budget; the draws, and so the results, are the same for every T.
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
    for k in _self_image_bins(params):
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


def _add_bin_noise(
    symbols: np.ndarray, sigma_n: float, normals: np.ndarray | None, *, out=None,
) -> np.ndarray:
    """Return received data symbols (..., N) plus the data-bin read of white
    real passband noise of variance sigma_n^2: circular complex Gaussian
    noise of variance 2 sigma_n^2 at every bin, formed as sigma_n times
    ``normals``, a complex array of the symbols' shape whose real and
    imaginary parts are standard normals. sigma_n = 0 reads no normals, so
    they may be None. ``out``, a C-contiguous complex array of the symbols'
    shape, receives the result in place of a new array."""
    if out is None:
        out = np.empty(symbols.shape, complex)
    if sigma_n == 0:
        out[...] = symbols
        return out
    np.multiply(normals, sigma_n, out=out)
    out += symbols
    return out


def _noise_free_unit(
    params: OfdmParams,
    scheme: ModScheme,
    cr: float | None,
    hpf: fir_design.FirFilter | None,
    min_bits: int,
    rng: np.random.Generator,
    noise: np.random.Generator | None = None,
) -> tuple:
    """The shared work of a BER unit: draw the bit rows, transmit them
    (cr=None skips clipping and filtering) and receive them without noise,
    one chunk at a time (``_ber_chunk``). Returns (bits, transmit power,
    received symbols, normals); the power is the mean square of the
    passband samples, prefix included, that the channel is calibrated to,
    taken as the mean of the per-block mean squares. Unclipped, the symbols are the
    mapped symbols. Fourth come the unit's normals: given ``noise``, a
    generator, one complex array of the symbols' shape whose real and
    imaginary parts are standard normals drawn in row order (2N a frame);
    without it, None.

    The bits are drawn up front and the chunks run on ``_on_chunks``, one
    thread per full budget of the unit's prefixed blocks (``_chunking``),
    each thread with its own buffers. Every chunk writes its own rows. A
    chunk's normals are drawn as the chunk is claimed, so the draws follow
    row order whatever the thread count and concatenate to one draw of all
    the rows, while the other threads transmit."""
    if cr is not None and hpf is None:
        raise ConfigError("clipping requested but no high-pass filter supplied")
    _band_read(params)  # refuses a plan the receiver cannot serve
    amplitude = None if cr is None else _clip_level(params, cr)
    fold = None if cr is None else _composed_fold(params, hpf)
    bits_per_frame = params.n_subcarriers * scheme.bits_per_symbol
    n_frames = max(1, math.ceil(min_bits / bits_per_frame))
    bits = _random_bits(rng, n_frames, bits_per_frame)
    threads, step = _chunking(n_frames, params.n_oversampled + params.cp_oversampled)
    buffers = [_chunk_buffers(min(step, n_frames), params) for _ in range(threads)]
    received = np.empty((n_frames, params.n_subcarriers), dtype=complex)
    block_power = np.empty(n_frames)
    normals = None if noise is None else np.empty_like(received)

    def draw(rows):
        noise.standard_normal(out=normals[rows].view(float))

    def transmit(thread, rows, _):
        _ber_chunk(bits[rows], scheme, params, amplitude, fold, buffers[thread],
                   received[rows], block_power[rows])

    _on_chunks(n_frames, step, transmit, claim=None if noise is None else draw,
               threads=threads)
    return bits, float(np.mean(block_power)), received, normals


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
    noiseless channel. SeedSequence(entropy).spawn(2) gives the unit's two
    streams: child 0 for the bits, child 1 for the unit normals z that
    every point shares (common random numbers). A unit whose points are
    all noiseless draws no normals.

    Nothing runs until the first value is asked for; the unit's transmit,
    noise-free receive and draw of z then run once, before the first
    point.

    Each point runs when its value is asked for, and computes only its
    own cell. It is a chunk loop on the unit's T threads (``_chunking``)
    over the kept symbols, in chunks of at most 1/T of the budget and of
    the rows: each chunk writes sigma_n times its rows of z into its
    thread's buffer, adds the symbols, divides by the gain, demaps and
    returns its error count, so a point makes no array of the unit's size.
    The point's count is the sum of its chunks' counts.

    So point i receives (sigma_n(i) z + clean) / gain, the same operations
    in the same order as a point with a draw of its own, and point 0 draws
    what it drew when every point had its own child 1 + i. A unit's points
    are correlated: for QPSK, the bit errors at an Eb/N0 include those at
    every higher Eb/N0 of the unit.
    """
    bit_seed, noise_seed = np.random.SeedSequence(entropy).spawn(2)
    noisy = any(ebn0_db is not None for ebn0_db in ebn0_grid_db)
    bits, power, clean, normals = _noise_free_unit(
        params, scheme, cr, hpf, min_bits, np.random.default_rng(bit_seed),
        np.random.default_rng(noise_seed) if noisy else None,
    )
    gain = clip_attenuation(cr) if cr is not None else 1.0
    # numpy divides a complex x by g + 0j as (x.real + x.imag * 0) * (1 / g)
    # and (x.imag - x.real * 0) * (1 / g), so scaling both parts by 1 / g
    # gives the same symbols, up to the sign of a zero part, which the
    # slicer ignores, without the slower complex division.
    scale = 1.0 / gain
    n_frames, n = clean.shape
    threads, _ = _chunking(n_frames, params.n_oversampled + params.cp_oversampled)
    # Chunks of at most 1/T of the rows spread every point over all T
    # threads: a reference 32-QAM unit has 313 frames, fewer than one
    # 512-frame chunk of N-wide rows at two threads.
    step = min(_chunk_frames(n * threads), math.ceil(n_frames / threads))
    buffers = [np.empty(step * n, complex) for _ in range(threads)]

    def errors_at(ebn0_db):
        sigma_n = 0.0 if ebn0_db is None else noise_sigma(params, scheme, ebn0_db, power)

        def count(thread, rows, _):
            out = _rows(buffers[thread], complex, *clean[rows].shape)
            z = None if normals is None else normals[rows]
            parts = _add_bin_noise(clean[rows], sigma_n, z, out=out).view(float)
            parts *= scale
            return int(np.count_nonzero(bits[rows] != _demap_rows(out, scheme)))

        return sum(_on_chunks(n_frames, step, count, threads=threads))

    for ebn0_db in ebn0_grid_db:
        yield errors_at(ebn0_db), bits.size


def _chunk_buffers(frames: int, params: OfdmParams) -> tuple[np.ndarray, ...]:
    """One thread's buffers for chunks of up to ``frames`` frames, cut from
    one complex allocation into three flat views: the mapped symbols, and
    the block and the scratch, both block-wide. ``_rows`` gives a chunk its
    (frames, width) view of a buffer."""
    widths = (params.n_subcarriers, params.n_oversampled, params.n_oversampled)
    ends = np.cumsum([frames * width for width in widths])
    return tuple(np.split(np.empty(ends[-1], complex), ends[:-1]))


def _rows(buffer: np.ndarray, dtype, count: int, width: int) -> np.ndarray:
    """The first count * width items of a flat buffer viewed as ``dtype``,
    shaped (count, width)."""
    return buffer.view(dtype)[: count * width].reshape(count, width)


def _clipped_band(
    bits: np.ndarray, scheme: ModScheme, params: OfdmParams, amplitude: float,
    fold: tuple, buffers: tuple[np.ndarray, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The clipped transmit of the frames ``bits`` holds, shared by both
    experiments' chunks, on one thread's buffers (``_chunk_buffers``).

    Map, extend and modulate write into the buffers' symbols and block (the
    inverse transform runs in place); |x| of the baseband goes into the
    scratch's first float view and the clip's real factor A / max(|x|, A)
    into its second, and the composed filter's forward half
    (``_filter_forward``) takes the factor in place of a clipped block.
    Returns (baseband, magnitude, band): the block, which the forward half
    leaves holding x c, free for the inverse half to overwrite; |x|, which
    nothing after the clip touches; and the band bins Y[j], j = -N/2..N/2.
    """
    count, total = bits.shape[0], params.n_oversampled
    symbols = _map_rows(bits, scheme, out=_rows(buffers[0], complex, count, params.n_subcarriers))
    block = _rows(buffers[1], complex, count, total)
    frames = _extend_rows(symbols, params.oversample, out=block)
    baseband = _modulate_rows(frames, params, out=block)
    # The two float views fill the scratch's bytes, count * N*L complex values.
    magnitude = np.abs(baseband, out=_rows(buffers[2], float, count, total))
    factor = _clip_magnitude_rows(
        magnitude, amplitude, out=_rows(buffers[2][count * total // 2 :], float, count, total))
    return baseband, magnitude, _composed_rows(baseband, fold, factor=factor)


def _papr_chunk(
    bits: np.ndarray, scheme: ModScheme, params: OfdmParams, amplitude: float,
    fold: tuple, buffers: tuple[np.ndarray, ...],
    unclipped_papr: np.ndarray, processed_papr: np.ndarray,
) -> None:
    """One chunk of a PAPR cell, on one of the cell's threads: writes the
    unclipped and the clipped-and-filtered PAPR of the frames ``bits``
    holds into the two views.

    The clipped transmit (``_clipped_band``) leaves |x| of the baseband in
    the scratch; its squares, in place, give the unclipped PAPR. The
    filter's inverse half (``_filter_inverse``) writes the filtered
    envelope over the baseband. The envelope stage is called as
    ``envelope_magnitude(samples, params)``, the form perfbench's self-test
    substitutes, so it returns a new |y| array, which is squared in place.
    """
    baseband, magnitude, band = _clipped_band(bits, scheme, params, amplitude, fold, buffers)
    # The unclipped symbol is in-band by construction, so its envelope is
    # the baseband signal itself.
    unclipped_papr[:] = _papr_db_rows(np.square(magnitude, out=magnitude))
    filtered = _filter_inverse(band, baseband)
    del band  # frees the real FFT's output before the envelope allocates
    envelope = envelope_magnitude(filtered, params)
    processed_papr[:] = _papr_db_rows(np.square(envelope, out=envelope))


def _ber_chunk(
    bits: np.ndarray, scheme: ModScheme, params: OfdmParams, amplitude: float | None,
    fold: tuple | None, buffers: tuple[np.ndarray, ...],
    received: np.ndarray, block_power: np.ndarray,
) -> None:
    """One chunk of a BER unit: transmits the frames ``bits`` holds
    (amplitude None skips clipping and filtering), then writes each block's
    noise-free data symbols into ``received`` and the mean square of its
    passband samples, prefix included, into ``block_power``.

    The transmit ends at the block's band bins Y[j], j = -N/2..N/2, the DFT
    of its complex envelope at offsets j from DC. Clipped, they come from
    the clipped transmit a PAPR chunk runs too (``_clipped_band``), and
    the data symbols are Y at the data bins over sqrt(N*L). Unclipped, the
    data symbols are the mapped symbols, written straight into
    ``received``, and Y is the extended frame times sqrt(N*L); no modulator
    transform runs. Either way Y times the weights of ``_band_read`` is the
    real FFT of the passband symbol at band bins k_c + j (zero elsewhere),
    written into the scratch; one inverse real FFT gives the passband
    symbol, as floats in the block's bytes. The prefix's
    passband samples are the symbol's last cp*L samples, so their squares
    are counted twice.
    """
    count, n, total = bits.shape[0], params.n_subcarriers, params.n_oversampled
    half, first, cp = n // 2, params.carrier_bin - n // 2, params.cp_oversampled
    data, weights = _band_read(params)
    spectrum = _rows(buffers[2], complex, count, total // 2 + 1)
    band = spectrum[:, first : first + n + 1]
    if amplitude is None:
        symbols = _map_rows(bits, scheme, out=received)
        weights = weights * math.sqrt(total)
        np.multiply(symbols[:, half:], weights[:half], out=band[:, :half])
        np.multiply(symbols[:, : half + 1], weights[half:], out=band[:, half:])
    else:
        _, _, filtered = _clipped_band(bits, scheme, params, amplitude, fold, buffers)
        np.take(filtered, data, axis=-1, out=received)
        received *= 1.0 / math.sqrt(total)
        np.multiply(filtered, weights, out=band)
    spectrum[:, :first] = 0
    spectrum[:, first + n + 1 :] = 0
    passband = np.fft.irfft(spectrum, total, axis=-1, out=_rows(buffers[1], float, count, total))
    squares = np.square(passband, out=passband)
    np.add(np.add.reduce(squares, axis=-1), np.add.reduce(squares[:, total - cp :], axis=-1),
           out=block_power)
    block_power /= total + cp


@lru_cache(maxsize=None)
def _band_read(params: OfdmParams) -> tuple[np.ndarray, np.ndarray]:
    """How a BER chunk reads a block's band bins Y[j], j = -N/2..N/2, held at
    index j + N/2: the indices of the N data bins in frame order
    (``_data_bin_offsets``, which refuses a plan the receiver cannot
    serve), and the weights that turn Y into the real FFT of the block's
    passband symbol at bins k_c + j. Read-only; one pair per plan.

    ``upconvert`` of a prefixed block puts sample m of the symbol at carrier
    phase phi c[m], phi = exp(j 2 pi k_c cp L / (N*L)) with the exponent
    reduced mod N*L in integers, so the symbol's passband sqrt(2) Re(y c
    phi) has the real FFT phi Y[j] / sqrt(2) at bin k_c + j. A band bin at
    DC or Nyquist is its own image: the passband holds 2 Re(phi Y[j]) /
    sqrt(2) there, so its weight is doubled and the inverse real FFT takes
    the real part. ``demodulate_passband`` undoes phi and the sqrt(2), so
    the data symbols are Y / sqrt(N*L).
    """
    n, total = params.n_subcarriers, params.n_oversampled
    data = _data_bin_offsets(params) + n // 2
    turns = params.carrier_bin * params.cp_oversampled % total / total
    weights = np.full(n + 1, np.exp(2j * np.pi * turns) / math.sqrt(2.0))
    for k in _self_image_bins(params):
        weights[k - params.carrier_bin + n // 2] *= 2
    data.flags.writeable = weights.flags.writeable = False
    return data, weights


def _papr_cell(
    spec: ExperimentSpec, scheme: ModScheme, cr: float, rng: np.random.Generator,
    hpf: fir_design.FirFilter,
):
    """Clipped-and-filtered and unclipped PAPR CCDFs of one cell, streamed
    in one pass over the bits ``rng`` draws (see the module docstring).

    The chunks run on ``_on_chunks``, one thread per full budget of the
    cell's blocks (``_chunking``), each thread with its own buffers
    (``_chunk_buffers``). A chunk's bits are drawn as the chunk is claimed,
    so the draws follow row order whatever the thread count; the chunk
    (``_papr_chunk``) then writes its rows of the two PAPR vectors.
    """
    params = spec.params
    n = spec.n_symbols
    bits_per_frame = params.n_subcarriers * scheme.bits_per_symbol
    amplitude = _clip_level(params, cr)
    fold = _composed_fold(params, hpf)
    threads, step = _chunking(n, params.n_oversampled)
    buffers = [_chunk_buffers(min(step, n), params) for _ in range(threads)]
    unclipped_papr = np.empty(n)
    processed_papr = np.empty(n)

    def draw(rows):
        return _random_bits(rng, rows.stop - rows.start, bits_per_frame)

    def run(thread, rows, bits):
        _papr_chunk(bits, scheme, params, amplitude, fold, buffers[thread],
                    unclipped_papr[rows], processed_papr[rows])

    _on_chunks(n, step, run, claim=draw, threads=threads)

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

    # The dict holds the cells in cell order, the order of the rows.
    rows = tuple(
        PaprRow(name, cr, q_clip, q_unclip,
                _pair_difference(quantiles, name, cr, value=lambda entry: entry[0]))
        for (name, cr), (q_clip, q_unclip) in quantiles.items()
    )
    return PaprExperimentResult(rows=rows, curves=curves)


def _pair_difference(table: dict, name: str, *key, value):
    """PSK minus QAM of the same order as scheme ``name`` at the same grid
    point, if both exist."""
    psk_key, qam_key = ((pair, *key) for pair in _PAIRS[name])
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
    if cr is not None and not (_is_real(cr) and 0 < cr < math.inf):
        raise ConfigError(f"cr must be positive and finite, got {cr!r}")
    if ebn0_db is not None and not (_is_real(ebn0_db) and math.isfinite(ebn0_db)):
        raise ConfigError(f"ebn0_db must be a finite number, got {ebn0_db!r}")
    ((errors, total),) = _ber_cells(params, scheme, cr, (ebn0_db,), min_bits, hpf, [seed, 2, 0])
    return errors, total


def run_ber_experiment(spec: ExperimentSpec, progress=None) -> BerExperimentResult:
    """BER sweep over every (scheme, cr, ebn0) cell of the spec.

    ``progress`` is called once per cell, in cell order, on the calling
    thread, before the cell's result is asked for; a (scheme, cr) unit's
    shared transmit and noise-free receive run as part of its first cell,
    and every cell computes only its own Eb/N0 point (see ``_ber_cells``).
    An empty ``ebn0_grid_db`` is refused before the high-pass is designed.
    """
    if len(spec.ebn0_grid_db) == 0:
        raise ConfigError("ebn0_grid_db must be non-empty for a BER experiment")
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

    # The dict holds the cells in cell order, the order of the rows.
    return BerExperimentResult(rows=tuple(
        BerRow(name, cr, ebn0, errors, total, errors / total,
               _pair_difference(results, name, cr, ebn0, value=lambda e: e[0] / e[1]))
        for (name, cr, ebn0), (errors, total) in results.items()
    ))


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows) -> Path:
    """Write a header and rows of cells to a UTF-8 CSV file."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def emit_csv(rows, path, columns=None) -> Path:
    """Write dataclass rows to a CSV file with full-precision numbers.

    Output is deterministic: fixed column order, repr-format floats (exact
    on round trip), UTF-8, no timestamps.
    """
    if columns is None:
        if not rows:
            raise ConfigError("columns must be given explicitly for an empty row set")
        columns = [f.name for f in fields(rows[0])]
    return _write_csv(path, columns,
                      ([_format_cell(getattr(row, name)) for name in columns] for row in rows))


def write_ccdf_csv(curve: CcdfCurve, path) -> Path:
    """Two-column plot data (threshold_db, prob_exceed) plus the sample count."""
    return _write_csv(path, ["threshold_db", "prob_exceed", "sample_count"],
                      ([repr(float(t)), repr(float(p)), curve.sample_count]
                       for t, p in zip(curve.thresholds_db, curve.prob_exceed)))


def write_ber_curve_csv(points, path) -> Path:
    """Plot data for one (scheme, cr): rows of (ebn0_db, ber, sample_count)."""
    return _write_csv(path, ["ebn0_db", "ber", "sample_count"],
                      ([repr(float(ebn0)), repr(float(ber)), total] for ebn0, ber, total in points))
