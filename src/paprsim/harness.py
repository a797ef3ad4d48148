"""Experiment orchestration: PAPR and BER sweeps over scheme and clipping ratio.

Both experiments walk a deterministic grid of cells. Every cell owns an
independent random stream derived as SeedSequence([master_seed, kind,
cell_index]) with kind 0 for PAPR cells and 1 for BER cells, so results are
a pure function of the experiment spec and cells could run in any order or
in parallel.

PAPR cell: generate frames, map, oversample-extend, modulate; take sigma as
the RMS over the whole unclipped batch and clip the envelope magnitude at
cr * sigma (phase preserved, applied at baseband just before carrier
modulation); upconvert and apply the composed filter per symbol; read the
per-symbol envelope PAPR of both the processed and the unclipped batches
into CCDF curves. PAPR always refers to the complex envelope |x[m]|^2 of
the oversampled symbol, never to the instantaneous real passband waveform,
whose peaks carry an extra carrier-phase artifact of about 2.5 dB.

BER cell: same transmit path plus a cyclic prefix (clipping covers the full
block, the composed filter runs on the prefix-free symbol and the prefix is
rebuilt from the filtered tail), AWGN calibrated to the cell's Eb/N0 from
the measured transmit power, then the receive chain (downconversion with the
image-reject filter, prefix removal, demodulation, demapping). The receiver
filters over a cyclic extension of each block so the filter's edge
transients land on padding instead of data samples.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import fir_design
from .channel import NoiseConfig, add_awgn, noise_sigma
from .clip_filter import clip_baseband, composed_filter, default_hpf_spec, rms
from .constellation import SCHEME_NAMES, ModScheme, demap_symbols, map_bits
from .errors import ConfigError, ExperimentError
from .metrics import CcdfCurve, _papr_db_rows, ccdf_quantile, estimate_ccdf
from .ofdm_chain import (
    OfdmParams,
    _filter_rows,
    _image_filter_for,
    _mix_down,
    _require_block,
    add_cyclic_prefix,
    ofdm_demodulate,
    ofdm_modulate,
    oversample_extend,
    remove_cyclic_prefix,
    upconvert,
)

# The harness calls the layer functions through the stage names that
# perfbench/interactions.json lists, because perfbench/spans.py times a stage
# by wrapping that module-level name. Each name is bound to the public
# function itself, so every stage keeps one implementation. The bindings go
# once the stage table names the public functions (ROADMAP item 4).
_map_rows = map_bits
_extend_rows = oversample_extend
_modulate_rows = ofdm_modulate
_clip_magnitude_rows = clip_baseband
_upconvert_rows = upconvert
_composed_rows = composed_filter
_awgn_rows = add_awgn
_demodulate_rows = ofdm_demodulate
_demap_rows = demap_symbols

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
        if self.bits_per_point < 1:
            raise ConfigError("bits_per_point must be positive")
        if not all(np.isfinite(v) for v in self.ebn0_grid_db):
            raise ConfigError("ebn0_grid_db values must be finite")
        # Fail fast on an infeasible high-pass band plan.
        default_hpf_spec(
            self.params, self.hpf_num_taps, self.hpf_stop_edge, self.hpf_pass_edge
        )


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
    """|complex envelope| of real passband blocks (..., N*L), via the
    analytic signal.

    Keeps the positive-frequency occupied band (``params.occupied_bins``) in
    the DFT domain and scales by sqrt(2), undoing ``upconvert``'s power
    convention; the result's magnitude equals the transmitted envelope's.
    A band edge at Nyquist is left out: that bin is its own conjugate image.
    PAPR of an OFDM symbol is defined on this envelope.
    """
    _require_block(samples, params, "signal")
    band = params.occupied_bins
    mask = np.zeros(params.n_oversampled, dtype=bool)
    mask[band[2 * band < params.n_oversampled]] = True
    analytic = np.fft.ifft(np.fft.fft(samples, axis=-1) * mask, axis=-1)
    return np.sqrt(2.0) * np.abs(analytic)


def _clip_filter_blocks(
    baseband_blocks: np.ndarray,
    amplitude: float,
    params: OfdmParams,
    hpf: fir_design.FirFilter,
) -> np.ndarray:
    """Envelope-clip full baseband blocks, upconvert, filter the prefix-free
    symbol, and rebuild the prefix from the filtered tail. Returns passband
    blocks ready for the channel."""
    cp_n = params.cp_oversampled
    out = np.empty(baseband_blocks.shape)
    for start in range(0, baseband_blocks.shape[0], _FRAME_CHUNK):
        chunk = _clip_magnitude_rows(baseband_blocks[start : start + _FRAME_CHUNK], amplitude)
        passband = remove_cyclic_prefix(_upconvert_rows(chunk, params), cp_n)
        filtered = _composed_rows(passband, params, hpf)
        out[start : start + chunk.shape[0]] = add_cyclic_prefix(filtered, cp_n)
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


def _receive_symbols(
    rx_blocks: np.ndarray,
    params: OfdmParams,
    sigma_n: float = 0.0,
    signal_gain: float | None = None,
) -> np.ndarray:
    """Downconvert, strip the prefix, demodulate and gain-normalize; returns
    the equalized data symbols, one row per received block.

    Mixing happens before the cyclic extension so the pad phases stay
    consistent; the appended and prepended chunks continue each block
    periodically, which gives the image-reject filter genuine context at
    both block edges.

    Before slicing, the batch is divided by a gain reference: clipping
    attenuates the useful signal (Bussgang shrinkage), and a receiver that
    slices multi-ring QAM against the unit reference grid without restoring
    gain would be systematically biased. When the clipping ratio is known
    (``signal_gain`` from :func:`clip_attenuation`), that closed form is
    used; otherwise the gain is estimated blindly as
    sqrt(mean |y|^2 - 2 sigma_n^2), where 2 sigma_n^2 is the per-bin noise
    variance the channel was calibrated to.
    """
    taps = _image_filter_for(params).taps
    pad = min(taps.size, params.n_oversampled)
    delay = (taps.size - 1) // 2
    cp_n = params.cp_oversampled
    block_len = rx_blocks.shape[1]
    symbol_rows = []
    for start in range(0, rx_blocks.shape[0], _FRAME_CHUNK):
        mixed = _mix_down(rx_blocks[start : start + _FRAME_CHUNK], params)
        ext = np.concatenate(
            [mixed[:, block_len - pad :], mixed, mixed[:, cp_n : cp_n + pad]], axis=1
        )
        filtered = _filter_rows(ext, taps)[:, delay + pad : delay + pad + block_len]
        symbol_rows.append(_demodulate_rows(remove_cyclic_prefix(filtered, cp_n), params))
    symbols = np.concatenate(symbol_rows, axis=0)
    gain = signal_gain
    if gain is None:
        gain = np.sqrt(max(float(np.mean(np.abs(symbols) ** 2)) - 2.0 * sigma_n**2, 1e-12))
    return symbols / gain


def _receive_bits(
    rx_blocks: np.ndarray,
    scheme: ModScheme,
    params: OfdmParams,
    sigma_n: float = 0.0,
    signal_gain: float | None = None,
) -> np.ndarray:
    """Recover the equalized symbols (:func:`_receive_symbols`) and demap them."""
    return _demap_rows(_receive_symbols(rx_blocks, params, sigma_n, signal_gain), scheme)


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
        chunk = _clip_magnitude_rows(baseband[start : start + _FRAME_CHUNK], amplitude)
        filtered = _composed_rows(_upconvert_rows(chunk, params), params, hpf)
        envelope = envelope_magnitude(filtered, params)
        processed_papr[start : start + chunk.shape[0]] = _papr_db_rows(envelope**2)

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


def _ber_cell(
    params: OfdmParams,
    scheme: ModScheme,
    rng: np.random.Generator,
    min_bits: int,
    cr: float | None,
    ebn0_db: float | None,
    hpf: fir_design.FirFilter | None,
):
    """One end-to-end BER measurement; cr=None skips clipping and filtering,
    ebn0_db=None runs a noiseless channel. Returns (errors, total_bits)."""
    bits_per_frame = params.n_subcarriers * scheme.bits_per_symbol
    n_frames = max(1, math.ceil(min_bits / bits_per_frame))
    tx_bits = _random_bits(rng, n_frames, bits_per_frame)
    baseband = _tx_baseband_frames(tx_bits, scheme, params, cp=params.cp_len > 0)

    if cr is not None:
        if hpf is None:
            raise ConfigError("clipping requested but no high-pass filter supplied")
        blocks = _clip_filter_blocks(baseband, cr * rms(baseband), params, hpf)
    else:
        blocks = _upconvert_rows(baseband, params)

    sigma_n = 0.0
    if ebn0_db is not None:
        config = NoiseConfig(
            ebn0_db=ebn0_db,
            bits_per_symbol=scheme.bits_per_symbol,
            occupied_fraction=1.0 / params.oversample,
            cp_overhead=params.n_subcarriers / (params.n_subcarriers + params.cp_len),
        )
        sigma_n = noise_sigma(config, float(np.mean(blocks**2)))
        blocks = _awgn_rows(blocks, sigma_n, rng)

    gain = clip_attenuation(cr) if cr is not None else None
    rx_bits = _receive_bits(blocks, scheme, params, sigma_n, gain)
    errors = int(np.count_nonzero(tx_bits != rx_bits))
    return errors, tx_bits.size


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
    the noiseless loopback of the full modulation chain.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2, 0]))
    return _ber_cell(params, scheme, rng, min_bits, cr, ebn0_db, hpf)


def run_ber_experiment(spec: ExperimentSpec, progress=None) -> BerExperimentResult:
    """BER sweep over every (scheme, cr, ebn0) cell of the spec."""
    hpf = experiment_hpf(spec)
    results: dict[tuple[str, float, float], tuple[int, int]] = {}
    cells = [
        (scheme, cr, ebn0)
        for scheme in spec.schemes
        for cr in spec.cr_values
        for ebn0 in spec.ebn0_grid_db
    ]
    for index, (scheme, cr, ebn0) in enumerate(cells):
        if progress:
            progress(f"ber {scheme.name} cr={cr:g} ebn0={ebn0:g} dB")
        try:
            errors, total = _ber_cell(
                spec.params,
                scheme,
                _cell_rng(spec.seed, 1, index),
                spec.bits_per_point,
                cr,
                ebn0,
                hpf,
            )
        except Exception as exc:
            raise ExperimentError(
                f"ber cell failed (scheme={scheme.name}, cr={cr:g}, ebn0={ebn0:g}): {exc}"
            ) from exc
        results[(scheme.name, cr, ebn0)] = (errors, total)

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
