"""Experiment orchestration: PAPR and BER sweeps over scheme and clipping ratio.

Both experiments walk a deterministic grid of cells, and every random draw
comes from a stream derived from the master seed and the cell's place in the
grid, so results are a pure function of the experiment spec. A PAPR cell
draws from SeedSequence([master_seed, 0, cell_index]).

PAPR cell: generate frames, map, oversample-extend, modulate; take sigma as
the RMS over the whole unclipped batch and clip the envelope magnitude at
cr * sigma (phase preserved, applied at baseband just before carrier
modulation); apply the composed filter per symbol to the clipped baseband,
which returns the complex envelope of the filtered passband symbol, so no
passband samples are formed; read the per-symbol envelope PAPR of both the
processed and the unclipped batches into CCDF curves. PAPR always refers to
the complex envelope |x[m]|^2 of the oversampled symbol, never to the
instantaneous real passband waveform, whose peaks carry an extra
carrier-phase artifact of about 2.5 dB.

BER cells come in units, one per (scheme, cr), that share one transmission.
A unit draws its bits once and runs the transmit path plus a cyclic prefix
(clipping is memoryless, so the first N*L clipped samples of a block are the
symbol rotated by the prefix; they are filtered, upconverted and given a
cyclic suffix, which is the filtered symbol behind a prefix rebuilt from its
tail). It measures the transmit power and receives the blocks without
noise: strip the prefix and demodulate, one real FFT per block read at the
data bins (``demodulate_passband``). For an on-bin carrier, mix-down, the
image-reject low-pass applied circularly over the block, and the FFT
demodulator are diagonal in the DFT, so the receiver is linear and reads
only the N data bins. White real passband noise of variance sigma_n^2
therefore reaches data bin j as circular complex Gaussian noise of variance
2 sigma_n^2 H(j)^2, independent across bins (H is the low-pass's response;
prefix noise is discarded). Each Eb/N0 point calibrates sigma_n from the
measured transmit power, draws only that bin noise, adds it to the
noise-free symbols, normalizes the gain and slices. The unit draws from
SeedSequence([master_seed, 1, unit_index]).spawn(1 + len(ebn0_grid_db)):
child 0 for the bits, child 1 + i for the noise at Eb/N0 point i.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import fir_design, ofdm_chain
from .channel import NoiseConfig, add_awgn, noise_sigma
from .clip_filter import clip_baseband, composed_filter, default_hpf_spec, rms
from .constellation import SCHEME_NAMES, ModScheme, demap_symbols, map_bits
from .errors import ConfigError, ExperimentError, ShapeError
from .metrics import CcdfCurve, _papr_db_rows, ccdf_quantile, estimate_ccdf
from .ofdm_chain import (
    OfdmParams,
    _require_block,
    add_cyclic_prefix,
    demodulate_passband,
    ofdm_modulate,
    oversample_extend,
    remove_cyclic_prefix,
    upconvert,
)

# The harness calls the layer functions through the stage names that
# perfbench/interactions.json lists, because perfbench/spans.py times a stage
# by wrapping that module-level name. Each name is bound to the public
# function itself, so every stage keeps one implementation. The bindings go
# once the stage table names the public functions (ROADMAP item 2).
_map_rows = map_bits
_extend_rows = oversample_extend
_modulate_rows = ofdm_modulate
_clip_magnitude_rows = clip_baseband
_upconvert_rows = upconvert
_composed_rows = composed_filter
_demodulate_rows = demodulate_passband
_demap_rows = demap_symbols
# Uncalled since the receive fold (the literal low-pass) and the bin-domain
# BER unit (passband AWGN, the per-cell receiver): bound so that their traced
# stages report 0 calls instead of going missing.
_filter_rows = ofdm_chain._filter_rows
_awgn_rows = add_awgn
_receive_bits = demodulate_passband

#: Default CCDF threshold grid (dB); 0.05 dB steps bound the quantile
#: interpolation error well below the experiment tolerances.
CCDF_THRESHOLDS_DB = np.arange(0.0, 25.0 + 1e-9, 0.05)

_PAIRS = {4: ("qpsk", "qam"), 8: ("8psk", "8qam"), 16: ("16psk", "16qam"), 32: ("32psk", "32qam")}

_FRAME_CHUNK = 2048  # frames processed per FFT batch, bounds peak memory


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
        if any(cr <= 0 for cr in self.cr_values):
            raise ConfigError("cr_values must be positive")
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
        if self.bits_per_point < 1:
            raise ConfigError("bits_per_point must be positive")
        if not all(np.isfinite(v) for v in self.ebn0_grid_db):
            raise ConfigError("ebn0_grid_db values must be finite")
        # Fail fast on an infeasible high-pass or receiver low-pass band plan.
        default_hpf_spec(
            self.params, self.hpf_num_taps, self.hpf_stop_edge, self.hpf_pass_edge
        )
        ofdm_chain._image_filter_spec(self.params)


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


def _cell_rng(seed: int, kind: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, kind, index]))


def _random_bits(rng: np.random.Generator, n_frames: int, bits_per_frame: int) -> np.ndarray:
    return rng.integers(0, 2, size=(n_frames, bits_per_frame), dtype=np.uint8)


def _tx_baseband_frames(
    bits: np.ndarray, scheme: ModScheme, params: OfdmParams, cp: bool
) -> np.ndarray:
    """Map bit rows to complex baseband blocks; one row per OFDM symbol."""
    cp_n = params.cp_oversampled if cp else 0
    out = np.empty((bits.shape[0], params.n_oversampled + cp_n), dtype=complex)
    for start in range(0, bits.shape[0], _FRAME_CHUNK):
        chunk = bits[start : start + _FRAME_CHUNK]
        frames = _extend_rows(_map_rows(chunk, scheme), params.oversample)
        out[start : start + chunk.shape[0]] = add_cyclic_prefix(_modulate_rows(frames, params), cp_n)
    return out


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


def _clip_filter_blocks(
    baseband_blocks: np.ndarray,
    amplitude: float,
    params: OfdmParams,
    hpf: fir_design.FirFilter,
) -> np.ndarray:
    """Envelope-clip, filter and upconvert prefixed baseband blocks; returns
    passband blocks ready for the channel.

    Clipping is memoryless, so the clipped first N*L samples of a block are
    the clipped symbol rotated by the prefix. The composed filter is
    circular, so filtering them, upconverting and appending a cyclic suffix
    of prefix length gives the filtered symbol behind a prefix rebuilt from
    its tail.
    """
    total = params.n_oversampled
    out = np.empty(baseband_blocks.shape)
    for start in range(0, baseband_blocks.shape[0], _FRAME_CHUNK):
        symbols = baseband_blocks[start : start + _FRAME_CHUNK, :total]
        chunk = _clip_magnitude_rows(symbols, amplitude)
        passband = _upconvert_rows(_composed_rows(chunk, params, hpf), params)
        rows = out[start : start + chunk.shape[0]]
        rows[:, :total] = passband
        rows[:, total:] = passband[:, : params.cp_oversampled]
    return out


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


def _receive_symbols(rx_blocks: np.ndarray, params: OfdmParams) -> np.ndarray:
    """Strip the prefix and demodulate received passband blocks; returns
    their data symbols at gain 1, one row per block.

    ``demodulate_passband`` does the mix-down, image-reject low-pass and
    FFT demodulation of each prefix-stripped block in one real FFT read at
    the data bins; the low-pass acts circularly, so no filter transient
    reaches a data sample.
    """
    symbols = np.empty((rx_blocks.shape[0], params.n_subcarriers), dtype=complex)
    for start in range(0, rx_blocks.shape[0], _FRAME_CHUNK):
        chunk = remove_cyclic_prefix(rx_blocks[start : start + _FRAME_CHUNK], params.cp_oversampled)
        symbols[start : start + chunk.shape[0]] = _demodulate_rows(chunk, params)
    return symbols


def _equalize(symbols: np.ndarray, sigma_n: float, signal_gain: float | None) -> np.ndarray:
    """Divide received data symbols in place by a gain reference before
    slicing; returns them.

    Clipping attenuates the useful signal (Bussgang shrinkage), and a
    receiver that slices multi-ring QAM against the unit reference grid
    without restoring gain would be systematically biased. When the
    clipping ratio is known (``signal_gain`` from :func:`clip_attenuation`),
    that closed form is used; otherwise the gain is estimated blindly as
    sqrt(mean |y|^2 - 2 sigma_n^2), where 2 sigma_n^2 is the per-bin noise
    variance the channel was calibrated to (times the low-pass's squared
    response at the bin, within 2.2e-5 of 1 on the reference plan).
    """
    gain = signal_gain
    if gain is None:
        gain = np.sqrt(max(float(np.mean(np.abs(symbols) ** 2)) - 2.0 * sigma_n**2, 1e-12))
    symbols /= gain
    return symbols


def _add_bin_noise(
    symbols: np.ndarray, sigma_n: float, response: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Return received data symbols (..., N) plus the data-bin read of white
    real passband noise of variance sigma_n^2: circular complex Gaussian
    noise of variance 2 sigma_n^2 H(j)^2 at bin j, ``response`` holding
    H(j). Draws 2N standard normals per row; sigma_n = 0 draws nothing."""
    if sigma_n == 0:
        return symbols.copy()
    shape = symbols.shape[:-1] + (2 * symbols.shape[-1],)
    noisy = rng.standard_normal(shape).view(complex)
    noisy *= sigma_n * response
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
    (cr=None skips clipping and filtering) and receive them without noise.
    Returns (bits, transmit power, received symbols at gain 1); the power
    is the mean square of the passband samples, prefix included, that the
    channel is calibrated to."""
    bits_per_frame = params.n_subcarriers * scheme.bits_per_symbol
    n_frames = max(1, math.ceil(min_bits / bits_per_frame))
    bits = _random_bits(rng, n_frames, bits_per_frame)
    baseband = _tx_baseband_frames(bits, scheme, params, cp=params.cp_len > 0)
    if cr is None:
        blocks = _upconvert_rows(baseband, params)
    elif hpf is None:
        raise ConfigError("clipping requested but no high-pass filter supplied")
    else:
        blocks = _clip_filter_blocks(baseband, cr * rms(baseband), params, hpf)
    del baseband
    power = float(np.mean(blocks**2))
    return bits, power, _receive_symbols(blocks, params)


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
    response = ofdm_chain._data_bin_response(params)
    gain = clip_attenuation(cr) if cr is not None else None
    for ebn0_db, seed in zip(ebn0_grid_db, seeds[1:]):
        sigma_n = 0.0
        if ebn0_db is not None:
            config = NoiseConfig(
                ebn0_db=ebn0_db,
                bits_per_symbol=scheme.bits_per_symbol,
                occupied_fraction=1.0 / params.oversample,
                cp_overhead=params.n_subcarriers / (params.n_subcarriers + params.cp_len),
            )
            sigma_n = noise_sigma(config, power)
        rx = _add_bin_noise(clean, sigma_n, response, np.random.default_rng(seed))
        rx_bits = _demap_rows(_equalize(rx, sigma_n, gain), scheme)
        yield int(np.count_nonzero(bits != rx_bits)), bits.size


def _papr_cell(
    spec: ExperimentSpec, scheme: ModScheme, cr: float, rng: np.random.Generator,
    hpf: fir_design.FirFilter,
):
    params = spec.params
    bits = _random_bits(rng, spec.n_symbols, params.n_subcarriers * scheme.bits_per_symbol)
    baseband = _tx_baseband_frames(bits, scheme, params, cp=False)
    # The unclipped symbol is in-band by construction, so its envelope is the
    # baseband signal itself, and sigma matches the passband RMS exactly.
    amplitude = cr * rms(baseband)

    unclipped_papr = _papr_db_rows(np.abs(baseband) ** 2)
    processed_papr = np.empty(spec.n_symbols)
    for start in range(0, baseband.shape[0], _FRAME_CHUNK):
        # Nested calls free each stage's input once the next stage returns,
        # so at most two block-sized arrays are live besides the batch.
        envelope = envelope_magnitude(
            _composed_rows(
                _clip_magnitude_rows(baseband[start : start + _FRAME_CHUNK], amplitude),
                params,
                hpf,
            ),
            params,
        )
        processed_papr[start : start + envelope.shape[0]] = _papr_db_rows(
            np.square(envelope, out=envelope)
        )

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
