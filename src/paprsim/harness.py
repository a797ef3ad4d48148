"""Experiment orchestration: PAPR and BER sweeps over scheme and clipping ratio.

Both experiments walk their (scheme, cr) grid in one loop (``_walk_grid``),
which seeds each unit's streams by its place in the grid (README section
8), and transmit on one chunked loop (``_transmit``) that runs on the
threads of ``_on_chunks``, each in buffers allocated once per experiment
call (``_workspace``; README "Loops, threads and buffers"). The helper
threads belong to the call too: each starts when a chunk loop of the call
first needs it, serves every later loop, and is joined when the call
returns or raises. The grid walk hands its workspace to every unit;
``simulate_chain_ber``, one unit on its own, is the only other caller that
makes one. The clip level cr * sigma is known before any bit is drawn
(README section 1).

PAPR cell: one pass over the cell's bits, drawn in chunks of frames. A
chunk maps, extends and modulates them and takes |x| once (``_baseband``),
clips by the real factor A / max(|x|, A) inside the composed filter's
forward half (``_clip_filter``; README sections 5 and 6), and reads the
unclipped PAPR from the envelope of x, which is |x| but at a band edge on
DC or Nyquist, where it is read from x before the forward half, and the
processed PAPR from the filtered envelope (README section 7). Only the two
PAPR vectors grow with n_symbols.

BER unit, one per (scheme, cr), whose Eb/N0 cells share one transmission:
it draws its bits chunk by chunk, transmits them to the band bins, keeps
each symbol's label integer, one byte, in place of its bits, reads the
noise-free data symbols and the transmit power there (README section 3),
and draws its unit normals z. Each Eb/N0 point calibrates sigma_n from
that power (README section 2), adds sigma_n z as the data-bin noise
(README section 4), divides by ``clip_attenuation(cr)``, slices to label
integers in the thread's idle transmit block and counts the bit errors as
the set bits of those labels XOR the sent ones (README section 10). Every
point scales the same z (README section 9), so a unit's cells are
correlated and are not independent samples of the BER curve.
"""
from __future__ import annotations

import math
import os
import queue
import threading
from collections.abc import Sequence
from contextlib import closing, contextmanager
from dataclasses import dataclass
from functools import lru_cache

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
from .constellation import SCHEME_NAMES, ModScheme, _slice_labels, map_bits
from .errors import ConfigError, ExperimentError, ShapeError
from .metrics import CcdfCurve, _papr_db_rows, ccdf_quantile, estimate_ccdf
from .ofdm_chain import (
    OfdmParams,
    _carrier_turns,
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
# function itself, or for the clip, the composed filter and the demapper to
# the kernel the public function runs (the clip's real factor; the
# filter's forward half, given its fold; the slicer's label integers), so
# every stage keeps one implementation. The
# bindings go once the stage table names the public functions (ROADMAP
# item 1).
_map_rows = map_bits
_extend_rows = oversample_extend
_modulate_rows = ofdm_modulate
_clip_magnitude_rows = _clip_factor
_composed_rows = _filter_forward
_demap_rows = _slice_labels
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
CCDF_THRESHOLDS_DB.setflags(write=False)

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


def experiment_hpf(spec: ExperimentSpec) -> fir_design.FirFilter:
    """The composed filter's high-pass for ``spec``, designed once per
    design target (``default_hpf_spec``).

    The last target's design is cached (``_design_hpf``), so every spec
    with that target, whatever its seed, schemes, CRs or sizes, shares it;
    another target designs again. A design that raises is not kept.
    """
    return _design_hpf(
        default_hpf_spec(spec.params, spec.hpf_num_taps, spec.hpf_stop_edge, spec.hpf_pass_edge)
    )


@lru_cache(maxsize=1)
def _design_hpf(target: fir_design.FirDesignSpec) -> fir_design.FirFilter:
    """``fir_design.design_equiripple(target)``, kept for the last target."""
    return fir_design.design_equiripple(target)


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


class _Helpers:
    """The helper threads of one experiment call (``_workspace``). Helper
    t, named paprsim-runner-t, starts the first time a chunk loop of the
    call needs t helpers, and runs the jobs of every later loop from an
    inbox of its own; ``close`` stops and joins them all. They are daemon
    threads, so a set that is never closed cannot keep the process alive."""

    def __init__(self):
        self._inboxes, self._threads = [], []

    def run(self, count: int, job) -> list[threading.Event]:
        """Hand ``job(t)``, which must not raise, to helpers t = 1..count,
        starting those not yet running. Returns one event per helper, set
        once its ``job`` has returned."""
        while len(self._threads) < count:
            self._inboxes.append(queue.SimpleQueue())
            self._threads.append(threading.Thread(
                target=_serve, args=(self._inboxes[-1],),
                name=f"paprsim-runner-{len(self._inboxes)}", daemon=True))
            self._threads[-1].start()
        done = [threading.Event() for _ in range(count)]
        for thread, event in enumerate(done, 1):
            self._inboxes[thread - 1].put((job, thread, event))
        return done

    def close(self) -> None:
        """Stop every helper once it has run the jobs it was handed, and
        join it."""
        for inbox in self._inboxes:
            inbox.put(None)
        for helper in self._threads:
            helper.join()


def _serve(inbox: queue.SimpleQueue) -> None:
    """A helper's loop: run each (job, thread, done) from ``inbox`` as
    ``job(thread)``, which keeps its own failures, and set ``done``, until
    None arrives. A finished job is dropped before the wait for the next,
    so that the helper does not hold the arrays of a loop that has
    returned."""
    for job, thread, done in iter(inbox.get, None):
        job(thread)
        done.set()
        del job


def _on_chunks(
    frames: int, step: int, work, *, claim=None, threads: int, helpers: _Helpers,
) -> list:
    """Call ``work(thread, rows, claimed)`` for every chunk of range(frames),
    ``rows`` the chunk's slice(start, min(start + step, frames)), on
    min(threads, chunks) threads: the calling thread, numbered 0, and
    ``helpers`` 1, 2, ..., the running helper threads of the experiment
    call (``_Helpers``), started here only if not yet running, so that
    ``thread`` can pick buffers of its own. Returns ``work``'s results, one
    per chunk, in the order the chunks finished.

    The threads take the chunks in row order under one lock.
    ``claim(rows)``, if given, runs under that lock and its result is passed
    as ``claimed`` (None without ``claim``), so the claims follow row order
    whatever the thread count. A failure stops the other threads before
    their next chunk. Every helper has finished its share when the call
    returns or raises, and it raises the first failure.
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

    done = helpers.run(min(threads, math.ceil(frames / step)) - 1, loop)
    try:
        loop(0)
    finally:
        # Once the calling thread's loop ends, every chunk is taken or one
        # has failed; the flag also stops the helpers if the wait is
        # interrupted.
        stop.set()
        for event in done:
            event.wait()
    if failures:
        raise failures[0]
    return results


def _random_bits(rng: np.random.Generator, n_frames: int, bits_per_frame: int) -> np.ndarray:
    return rng.integers(0, 2, size=(n_frames, bits_per_frame), dtype=np.uint8)


def _chunk_frames(block_len: int) -> int:
    """Frames per chunk for blocks of ``block_len`` samples: the share of
    ``_CHUNK_SAMPLES``, rounded down to an even count, at least 2, so that
    chunked ``_random_bits`` draws concatenate to one draw of all the rows
    (README section 8)."""
    return max(2, _CHUNK_SAMPLES // block_len // 2 * 2)


def _clip_level(params: OfdmParams, cr: float) -> float:
    """Clip amplitude A = cr * sigma, sigma = sqrt((N+1)/(N*L)) the RMS of
    the OFDM signal (README section 1)."""
    n = params.n_subcarriers
    return cr * math.sqrt((n + 1) / (n * params.oversample))


def envelope_magnitude(samples: np.ndarray, params: OfdmParams) -> np.ndarray:
    """|complex envelope| of in-band complex baseband blocks (..., N*L), such
    as ``composed_filter``'s output, on which the PAPR of an OFDM symbol is
    defined: the analytic signal of ``upconvert(y)``, which is |y| but at a
    band edge on DC or Nyquist (README section 7). Returns a real (...,
    N*L) array; real input is refused with ``ShapeError``.
    """
    samples = np.asarray(samples)
    _require_block(samples, params, "signal")
    if not np.iscomplexobj(samples):
        raise ShapeError("envelope_magnitude takes complex baseband blocks, not passband")
    total = params.n_oversampled
    for k in _self_image_bins(params):
        tone = np.exp(2j * np.pi * (k - params.carrier_bin) * np.arange(total) / total)
        coefficient = (samples @ tone.conj())[..., None] / total
        correction = (np.conj(coefficient) if k == 0 else -coefficient) * tone
        samples = np.add(samples, correction, out=correction)
    return np.abs(samples)


def clip_attenuation(cr: float) -> float:
    """Bussgang gain alpha = 1 - exp(-CR^2) + (sqrt(pi)/2) CR erfc(CR) of a
    magnitude clip at ``cr`` on a complex-Gaussian OFDM envelope, by which
    the receiver divides (README section 6)."""
    if not (_is_real(cr) and 0 < cr < math.inf):
        raise ConfigError(f"cr must be positive and finite, got {cr!r}")
    return 1.0 - math.exp(-cr * cr) + (math.sqrt(math.pi) / 2.0) * cr * math.erfc(cr)


def _add_bin_noise(
    symbols: np.ndarray, sigma_n: float, normals: np.ndarray | None, *, out: np.ndarray,
) -> np.ndarray:
    """Write into ``out``, a C-contiguous complex array of their shape, and
    return received data symbols (..., N) plus the data-bin read of white
    real passband noise of variance sigma_n^2 (README section 4): sigma_n
    times ``normals``, a complex array of the symbols' shape whose parts
    are standard normals. sigma_n = 0 reads no normals, so they may be
    None."""
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
    noise: np.random.Generator | None,
    space: tuple,
) -> tuple:
    """The shared work of a BER unit: draw the bit rows, transmit them
    (cr=None skips clipping and filtering) and receive them without noise,
    one chunk at a time (``_ber_chunk``, README section 3). Returns (sent,
    transmit power, received symbols, normals): ``sent`` holds each
    symbol's label integer, uint8 (frames, N), one byte a symbol in place
    of its bits; the power is the mean of the per-block mean squares of
    the passband samples, prefix included; unclipped, the symbols are the
    mapped symbols; the normals, given ``noise``, a generator, are a
    complex array of the symbols' shape whose parts are standard normals
    drawn in row order (2N a frame), else None.

    Each chunk's claim draws its bit rows and its normals, so that the
    draws follow row order and the chunked bit draws concatenate to one
    draw of all the rows (README section 8); no array of the unit's bits
    is kept. The labels, symbols, normals and block powers are the first
    rows of the unit arrays of ``space``, the caller's ``_workspace``
    (``noisy`` if ``noise`` is given), on whose buffers the chunks run, so
    the next unit of that workspace overwrites them. The caller has
    checked the plan, and that clipping has its high-pass."""
    n_frames = _unit_frames(params, scheme, min_bits)
    bits_per_frame = params.n_subcarriers * scheme.bits_per_symbol
    received, normals, block_power, sent = (None if a is None else a[:n_frames]
                                            for a in space[2:])

    def claim(rows):
        if noise is not None:
            noise.standard_normal(out=normals[rows].view(float))
        return _random_bits(rng, rows.stop - rows.start, bits_per_frame)

    _transmit(params, scheme, cr, hpf, n_frames, _ber_chunk, claim, space, received, block_power,
              sent)
    return sent, float(np.mean(block_power)), received, None if noise is None else normals


def _ber_cells(
    params: OfdmParams,
    scheme: ModScheme,
    cr: float | None,
    hpf: fir_design.FirFilter | None,
    min_bits: int,
    ebn0_grid_db,
    entropy: list[int],
    space: tuple,
):
    """Yield (bit_errors, bits_total) for each Eb/N0 point of one (scheme,
    cr) unit. cr=None skips clipping and filtering, an Eb/N0 of None is a
    noiseless channel. SeedSequence(entropy).spawn(2) gives the unit's two
    streams (README section 8): child 0 for the bits, child 1 for the unit
    normals z that every point shares (README section 9). A unit whose
    points are all noiseless draws no normals.

    Nothing runs until the first value is asked for; the unit's transmit,
    noise-free receive and draw of z then run once, in ``space``, the
    caller's ``_workspace``, noisy unless every point is noiseless (see
    ``_noise_free_unit``). So a unit's values must all be read before the
    next unit of the same workspace starts.

    Each point runs when its value is asked for and computes only its own
    cell: a chunk loop over the kept symbols on the unit's threads, in
    chunks of at most 1/T of the rows for T threads. A chunk writes sigma_n
    times its rows of z into its thread's transmit scratch, adds the
    symbols and divides by the gain there; the slicer (``_demap_rows``,
    README section 10) writes the label integers it decides, and keeps its
    temporaries, in the thread's transmit block, idle during the points,
    and skips its non-finite check where the point's bound shows every
    symbol finite; the chunk's count is the popcount of those labels XOR
    the sent ones. So a point allocates nothing of its chunks' size, and
    its count is the sum of its chunks' counts.
    """
    bit_seed, noise_seed = np.random.SeedSequence(entropy).spawn(2)
    noisy = any(ebn0_db is not None for ebn0_db in ebn0_grid_db)
    sent, power, clean, normals = _noise_free_unit(
        params, scheme, cr, hpf, min_bits, np.random.default_rng(bit_seed),
        np.random.default_rng(noise_seed) if noisy else None, space,
    )
    # numpy divides a complex x by the gain g + 0j as (x.real + x.imag * 0)
    # * (1 / g) and (x.imag - x.real * 0) * (1 / g), so scaling both parts
    # by 1 / g gives the same symbols, up to the sign of a zero part, which
    # the slicer ignores, without the slower complex division. The 4-point
    # tables are decided by the signs of the parts, which scaling by
    # 1 / g >= 1 keeps, so their points, like unclipped ones, skip it.
    scale = 1.0 if cr is None or scheme.order == 4 else 1.0 / clip_attenuation(cr)
    n_frames, n = clean.shape
    threads, step = _chunking(n_frames, params.n_oversampled)
    # A transmit chunk's scratch holds step * L rows of N. Chunks of at
    # most 1/T of the rows spread every point over all T threads, also in a
    # unit smaller than one chunk.
    step = min(step * params.oversample, math.ceil(n_frames / threads))
    scratch = [buffers[2] for buffers in space[0]]
    # The slicer's buffer: the block as floats, two for each of the up to
    # step * N symbols of a point chunk.
    work = [buffers[1].view(float) for buffers in space[0]]
    # The slicer refuses a non-finite symbol. A point's symbols, (sigma_n z
    # + clean) * scale, cannot be one while (sigma_n max|z| + max|clean|)
    # * scale stays below 2^1020, which leaves room for the roundings of
    # the three operations; a part of z or clean that is NaN or infinite
    # makes its bound NaN or infinite. Such a point's slicer skips its
    # check, and any other point's keeps it.
    clean_bound = _part_bound(clean)
    normals_bound = 0.0 if normals is None else _part_bound(normals)

    def errors_at(ebn0_db):
        sigma_n = 0.0 if ebn0_db is None else noise_sigma(params, scheme, ebn0_db, power)
        finite = (sigma_n * normals_bound + clean_bound) * scale < 2.0**1020

        def count(thread, rows, _):
            out = _rows(scratch[thread], complex, *clean[rows].shape)
            z = None if normals is None else normals[rows]
            parts = _add_bin_noise(clean[rows], sigma_n, z, out=out).view(float)
            if scale != 1.0:
                parts *= scale
            received = _demap_rows(out, scheme, work[thread], finite)
            return _bit_count(np.bitwise_xor(received, sent[rows], out=received))

        return sum(_on_chunks(n_frames, step, count, threads=threads, helpers=space[1]))

    for ebn0_db in ebn0_grid_db:
        yield errors_at(ebn0_db), clean.size * scheme.bits_per_symbol


def _part_bound(values: np.ndarray) -> float:
    """max - min of the parts of a C-contiguous complex array and 0: at
    least the largest |part|, and NaN or infinite if a part is."""
    parts = values.reshape(-1).view(float)
    return float(np.maximum.reduce(parts, initial=0.0) - np.minimum.reduce(parts, initial=0.0))


def _bit_count(values: np.ndarray) -> int:
    """The number of set bits of a C-contiguous uint8 array, counted eight
    bytes a word."""
    flat = values.reshape(-1)
    whole = flat.size // 8 * 8
    count = int(np.bitwise_count(flat[:whole].view(np.uint64)).sum())
    return count + int(np.bitwise_count(flat[whole:]).sum()) if whole < flat.size else count


def _chunk_buffers(frames: int, params: OfdmParams) -> tuple[np.ndarray, ...]:
    """One thread's buffers for chunks of up to ``frames`` frames, cut from
    one complex allocation into three flat views: the mapped symbols, and
    the block and the scratch, both block-wide. ``_rows`` gives a chunk its
    (frames, width) view of a buffer. ``_workspace`` makes one set per
    thread for a whole experiment call."""
    widths = (params.n_subcarriers, params.n_oversampled, params.n_oversampled)
    ends = np.cumsum([frames * width for width in widths])
    return tuple(np.split(np.empty(ends[-1], complex), ends[:-1]))


def _unit_frames(params: OfdmParams, scheme: ModScheme, min_bits: int) -> int:
    """Frames of a BER unit of at least ``min_bits`` bits, at least one."""
    return max(1, math.ceil(min_bits / (params.n_subcarriers * scheme.bits_per_symbol)))


@contextmanager
def _workspace(params: OfdmParams, unit_frames, ber: bool, noisy: bool = False):
    """A context that gives what the units of one experiment call
    (``_walk_grid``), or the one unit of ``simulate_chain_ber``, share,
    for units of the given frame counts, made once, and stops the call's
    helper threads when it exits, however it exits. It gives a tuple:
    first a list of chunk buffers (``_chunk_buffers``), one set per thread
    that any unit's transmit loop runs on (``_chunking``), each holding
    the largest chunk any unit hands that thread; then the call's helper
    threads (``_Helpers``), none running yet, of which the call's loops
    start at most one fewer than there are buffer sets; then, for BER
    units, the unit arrays at the largest unit's frames: the received
    symbols and, for ``noisy`` units (None otherwise), the normals,
    complex (frames, N), the block powers, (frames,), and the sent label
    integers, uint8 (frames, N), one byte a symbol. A unit takes the first
    rows of each and overwrites what the unit before it left."""
    loops = []  # (threads, frames per chunk) of each unit's transmit loop
    for frames in unit_frames:
        threads, step = _chunking(frames, params.n_oversampled)
        loops.append((threads, min(step, frames)))
    buffers = [_chunk_buffers(max(size for threads, size in loops if threads > thread), params)
               for thread in range(max(threads for threads, _ in loops))]
    arrays = ()
    if ber:
        frames, n = max(unit_frames), params.n_subcarriers
        normals = np.empty((frames, n), complex) if noisy else None
        arrays = (np.empty((frames, n), complex), normals, np.empty(frames),
                  np.empty((frames, n), np.uint8))
    with closing(_Helpers()) as helpers:
        yield (buffers, helpers, *arrays)


def _rows(buffer: np.ndarray, dtype, count: int, width: int) -> np.ndarray:
    """The first count * width items of a flat buffer viewed as ``dtype``,
    shaped (count, width)."""
    return buffer.view(dtype)[: count * width].reshape(count, width)


def _baseband(bits: np.ndarray, scheme: ModScheme, params: OfdmParams, buffers: tuple,
              labels: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The unclipped transmit of the frames ``bits`` holds, shared by both
    experiments' chunks, on one thread's buffers (``_chunk_buffers``):
    map, extend and modulate write into the buffers' symbols and block (the
    inverse transform runs in place), and the map writes the symbols' label
    integers into ``labels`` if given. Returns (x, |x|): the block, and its
    magnitude in the scratch's first float view."""
    count, total = bits.shape[0], params.n_oversampled
    symbols = _map_rows(bits, scheme, out=_rows(buffers[0], complex, count, params.n_subcarriers),
                        labels=labels)
    block = _extend_rows(symbols, params.oversample, out=_rows(buffers[1], complex, count, total))
    baseband = _modulate_rows(block, params, out=block)
    return baseband, np.abs(baseband, out=_rows(buffers[2], float, count, total))


def _clip_filter(baseband: np.ndarray, magnitude: np.ndarray, amplitude: float, fold: tuple,
                 buffers: tuple) -> np.ndarray:
    """The clip and the composed filter's forward half of a block x and its
    magnitude from ``_baseband``: the clip's real factor A / max(|x|, A)
    goes into the scratch's second float view, and the forward half
    (``_filter_forward``) takes it in place of a clipped block (README
    sections 5 and 6). Returns the band bins Y[j], j = -N/2..N/2. The
    forward half leaves x c in the block, free for the inverse half to
    overwrite; nothing here touches |x|."""
    # The two float views fill the scratch's bytes, count * N*L complex values.
    factor = _clip_magnitude_rows(
        magnitude, amplitude, out=_rows(buffers[2][magnitude.size // 2 :], float, *magnitude.shape))
    return _composed_rows(baseband, fold, factor=factor)


def _papr_chunk(
    bits: np.ndarray, scheme: ModScheme, params: OfdmParams, amplitude: float,
    fold: tuple, buffers: tuple[np.ndarray, ...],
    unclipped_papr: np.ndarray, processed_papr: np.ndarray,
) -> None:
    """One chunk of a PAPR cell, on one of the cell's threads: writes the
    unclipped and the clipped-and-filtered PAPR of the frames ``bits``
    holds into the two views.

    ``_baseband`` leaves |x| in the scratch, which is the unclipped
    envelope but on a plan with a band edge on DC or Nyquist (README
    section 7). There the envelope is read from x before the clip and the
    forward half (``_clip_filter``) overwrite it. The envelope's squares,
    in place, give the unclipped PAPR. The filter's inverse half
    (``_filter_inverse``) then writes the filtered envelope over the block.
    The envelope stage is called as ``envelope_magnitude(samples,
    params)``, the form perfbench's self-test substitutes, so it returns a
    new |y| array, which is squared in place.
    """
    baseband, magnitude = _baseband(bits, scheme, params, buffers)
    envelope = envelope_magnitude(baseband, params) if _self_image_bins(params) else magnitude
    band = _clip_filter(baseband, magnitude, amplitude, fold, buffers)
    unclipped_papr[:] = _papr_db_rows(np.square(envelope, out=envelope))
    filtered = _filter_inverse(band, baseband)
    del band  # frees the real FFT's output before the envelope allocates
    envelope = envelope_magnitude(filtered, params)
    processed_papr[:] = _papr_db_rows(np.square(envelope, out=envelope))


def _ber_chunk(
    bits: np.ndarray, scheme: ModScheme, params: OfdmParams, amplitude: float | None,
    fold: tuple | None, buffers: tuple[np.ndarray, ...],
    received: np.ndarray, block_power: np.ndarray, sent: np.ndarray,
) -> None:
    """One chunk of a BER unit: transmits the frames ``bits`` holds
    (amplitude None skips clipping and filtering), writing each symbol's
    label integer into ``sent`` as it maps them, then writes each block's
    noise-free data symbols into ``received`` and the mean square of its
    passband samples, prefix included, into ``block_power``.

    The transmit ends at the block's band bins Y[j], j = -N/2..N/2: clipped,
    from the transmit a PAPR chunk runs too (``_baseband``, then
    ``_clip_filter``); unclipped, from the mapped symbols, written straight
    into ``received``, with no modulator transform. Y times the weights of
    ``_band_read``, in the scratch, takes one inverse real FFT to the
    passband symbol, as floats in the block's bytes, whose squares and
    those of its last cp*L samples give the block's mean square (README
    section 3).
    """
    count, n, total = bits.shape[0], params.n_subcarriers, params.n_oversampled
    half, first, cp = n // 2, params.carrier_bin - n // 2, params.cp_oversampled
    data, weights = _band_read(params)
    spectrum = _rows(buffers[2], complex, count, total // 2 + 1)
    band = spectrum[:, first : first + n + 1]
    if amplitude is None:
        symbols = _map_rows(bits, scheme, out=received, labels=sent)
        weights = weights * math.sqrt(total)
        np.multiply(symbols[:, half:], weights[:half], out=band[:, :half])
        np.multiply(symbols[:, : half + 1], weights[half:], out=band[:, half:])
    else:
        filtered = _clip_filter(*_baseband(bits, scheme, params, buffers, sent), amplitude, fold,
                                buffers)
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
    passband symbol at bins k_c + j: phi / sqrt(2), doubled at a band bin
    on DC or Nyquist (README section 3). Read-only; one pair per plan.
    """
    n = params.n_subcarriers
    data = _data_bin_offsets(params) + n // 2
    turns = _carrier_turns(params.cp_oversampled, params)
    weights = np.full(n + 1, np.exp(2j * np.pi * turns) / math.sqrt(2.0))
    for k in _self_image_bins(params):
        weights[k - params.carrier_bin + n // 2] *= 2
    data.flags.writeable = weights.flags.writeable = False
    return data, weights


def _transmit(
    params: OfdmParams, scheme: ModScheme, cr: float | None,
    hpf: fir_design.FirFilter | None, frames: int, chunk, claim, space: tuple,
    *outs: np.ndarray,
) -> None:
    """The transmit loop of a PAPR cell and of a BER unit: call
    ``chunk(bits, scheme, params, amplitude, fold, space[0][thread],
    *views)`` for every chunk of ``frames`` frames, ``bits`` what
    ``claim(rows)`` returned for the chunk's rows and ``views`` each of
    ``outs`` at those rows. The clip level A = cr * sigma (``_clip_level``)
    and the composed filter's fold (``_composed_fold``) are worked out
    once; cr=None makes both None, which skips clipping and filtering.

    The chunks run on ``_on_chunks`` (``_chunking``) with the helpers of
    ``space``, the caller's ``_workspace``, each thread in its own set of
    its buffers. ``claim`` runs under the runner's lock, so draws made in
    it follow row order whatever the thread count (README section 8)."""
    amplitude = None if cr is None else _clip_level(params, cr)
    fold = None if cr is None else _composed_fold(params, hpf)
    threads, step = _chunking(frames, params.n_oversampled)

    def run(thread, rows, bits):
        chunk(bits, scheme, params, amplitude, fold, space[0][thread], *(out[rows] for out in outs))

    _on_chunks(frames, step, run, claim=claim, threads=threads, helpers=space[1])


def _papr_cell(
    spec: ExperimentSpec, scheme: ModScheme, cr: float, rng: np.random.Generator,
    hpf: fir_design.FirFilter, space: tuple,
):
    """Clipped-and-filtered and unclipped PAPR CCDFs of one cell, streamed
    in one pass over the bits ``rng`` draws (see the module docstring).

    The chunks (``_papr_chunk``) run on the transmit loop (``_transmit``),
    on the buffers of ``space``, the experiment's ``_workspace``. A chunk's
    bits are drawn as the chunk is claimed (README section 8).
    """
    n, bits_per_frame = spec.n_symbols, spec.params.n_subcarriers * scheme.bits_per_symbol
    unclipped_papr, processed_papr = np.empty(n), np.empty(n)
    _transmit(spec.params, scheme, cr, hpf, n, _papr_chunk,
              lambda rows: _random_bits(rng, rows.stop - rows.start, bits_per_frame),
              space, unclipped_papr, processed_papr)
    return (estimate_ccdf(processed_papr, CCDF_THRESHOLDS_DB),
            estimate_ccdf(unclipped_papr, CCDF_THRESHOLDS_DB))


def _walk_grid(spec: ExperimentSpec, kind: int, unit, points, progress) -> dict:
    """Walk the (scheme, cr) units of ``spec`` in order: the one grid walk
    of both experiments. ``unit(scheme, cr, entropy, space)`` gets the
    entropy [seed, kind, unit index] of its streams and the experiment's
    ``_workspace``, made once here for every unit of the call (a PAPR cell
    of n_symbols frames, or a BER unit of bits_per_point bits), and
    returns an iterator with one value per point of ``points``: (None,)
    for the one cell of a PAPR unit (kind 0), the Eb/N0 grid for a BER
    unit (kind 1). Every value of a unit is read before the next unit
    starts, so the units can share the workspace and its helper threads,
    which are joined when the walk returns or raises. Before each value
    ``progress``, if given, is called with the cell's name, and a failure
    is raised as the cell's ``ExperimentError``. Returns the values keyed
    by (scheme name, cr, point), in cell order, the order of the rows.
    """
    name = ("papr", "ber")[kind]
    frames = [_unit_frames(spec.params, scheme, spec.bits_per_point) if kind else spec.n_symbols
              for scheme in spec.schemes]
    results = {}
    with _workspace(spec.params, frames, ber=kind == 1, noisy=kind == 1) as space:
        for index, (scheme, cr) in enumerate((s, cr) for s in spec.schemes
                                             for cr in spec.cr_values):
            values = unit(scheme, cr, [spec.seed, kind, index], space)
            for ebn0 in points:
                at = "" if ebn0 is None else f"ebn0={ebn0:g}"
                if progress:
                    progress(f"{name} {scheme.name} cr={cr:g}" + (at and f" {at} dB"))
                try:
                    results[(scheme.name, cr, ebn0)] = next(values)
                except Exception as exc:
                    cell = f"scheme={scheme.name}, cr={cr:g}" + (at and f", {at}")
                    raise ExperimentError(f"{name} cell failed ({cell}): {exc}") from exc
    return results


def run_papr_experiment(spec: ExperimentSpec, progress=None) -> PaprExperimentResult:
    """PAPR CCDF sweep over every (scheme, cr) cell of the spec, one cell a
    unit on the grid walk (``_walk_grid``)."""
    hpf = experiment_hpf(spec)

    def unit(scheme, cr, entropy, space):
        curves = PaprCurves(*_papr_cell(spec, scheme, cr, np.random.default_rng(entropy), hpf, space))
        yield (curves, ccdf_quantile(curves.clipped, spec.ccdf_read_point),
               ccdf_quantile(curves.unclipped, spec.ccdf_read_point))

    cells = _walk_grid(spec, 0, unit, (None,), progress)
    rows = tuple(PaprRow(name, cr, q_clip, q_unclip,
                         _pair_difference(cells, name, cr, None, value=lambda cell: cell[1]))
                 for (name, cr, _), (_, q_clip, q_unclip) in cells.items())
    return PaprExperimentResult(rows, {key[:2]: cell[0] for key, cell in cells.items()})


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
    with a single Eb/N0 point, seeded by SeedSequence([seed, 2, 0])
    (README section 8), in a workspace of its own, whose helper threads
    are joined before it returns or raises. Every argument and the plan
    are checked before any bit is drawn.
    """
    if not isinstance(params, OfdmParams):
        raise ConfigError(f"params must be an OfdmParams, got {params!r}")
    if not isinstance(scheme, ModScheme):
        raise ConfigError(f"scheme must be a ModScheme, got {scheme!r}")
    if hpf is not None and not isinstance(hpf, fir_design.FirFilter):
        raise ConfigError(f"hpf must be None or a FirFilter, got {hpf!r}")
    if cr is not None and hpf is None:
        raise ConfigError("clipping requested but no high-pass filter supplied")
    _data_bin_offsets(params)  # refuses a plan the receiver cannot serve
    _require_int("seed", seed, 0)
    _require_int("min_bits", min_bits, 1)
    if cr is not None:
        clip_attenuation(cr)  # refuses a cr that is not positive and finite
    if ebn0_db is not None and not (_is_real(ebn0_db) and math.isfinite(ebn0_db)):
        raise ConfigError(f"ebn0_db must be a finite number, got {ebn0_db!r}")
    with _workspace(params, [_unit_frames(params, scheme, min_bits)], ber=True,
                    noisy=ebn0_db is not None) as space:
        return next(_ber_cells(params, scheme, cr, hpf, min_bits, (ebn0_db,), [seed, 2, 0], space))


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
    results = _walk_grid(spec, 1, lambda scheme, cr, entropy, space: _ber_cells(
        spec.params, scheme, cr, hpf, spec.bits_per_point, spec.ebn0_grid_db, entropy, space,
    ), spec.ebn0_grid_db, progress)
    return BerExperimentResult(rows=tuple(
        BerRow(name, cr, ebn0, errors, total, errors / total,
               _pair_difference(results, name, cr, ebn0, value=lambda e: e[0] / e[1]))
        for (name, cr, ebn0), (errors, total) in results.items()
    ))
