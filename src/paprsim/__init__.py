"""OFDM peak-power reduction simulator: clipping plus composed filtering.

A numpy library that builds an oversampled OFDM physical layer (PSK/QAM
mapping, zero-insertion oversampling, unitary transforms, cyclic prefix,
passband conversion), reduces the peak-to-average power ratio by amplitude
clipping followed by a frequency-domain composed filter (out-of-band
re-zeroing plus an equiripple in-band high-pass), and measures the result
with CCDF/PAPR statistics and AWGN bit-error-rate sweeps.
"""

from .channel import NoiseConfig, add_awgn, noise_sigma
from .clip_filter import (
    band_gains,
    clip_baseband,
    clip_passband,
    composed_filter,
    default_hpf_spec,
    rms,
)
from .constellation import (
    SCHEME_NAMES,
    ConstellationTable,
    ModScheme,
    constellation_points,
    demap_symbols,
    map_bits,
)
from .errors import (
    ConfigError,
    DesignError,
    ExperimentError,
    MetricError,
    PaprSimError,
    ShapeError,
)
from .fir_design import (
    FirDesignSpec,
    FirFilter,
    alternation_count,
    amplitude_response,
    design_equiripple,
    frequency_response,
)
from .harness import (
    BerRow,
    ExperimentSpec,
    PaprRow,
    clip_attenuation,
    emit_csv,
    envelope_magnitude,
    experiment_hpf,
    run_ber_experiment,
    run_papr_experiment,
    simulate_chain_ber,
    write_ber_curve_csv,
    write_ccdf_csv,
)
from .metrics import CcdfCurve, ccdf_quantile, estimate_ccdf, papr_db
from .ofdm_chain import (
    OfdmParams,
    add_cyclic_prefix,
    downconvert,
    inserted_zero_bins,
    ofdm_demodulate,
    ofdm_modulate,
    oversample_extend,
    remove_cyclic_prefix,
    upconvert,
)

__version__ = "0.1.0"

__all__ = [
    "BerRow",
    "CcdfCurve",
    "ConfigError",
    "ConstellationTable",
    "DesignError",
    "ExperimentError",
    "ExperimentSpec",
    "FirDesignSpec",
    "FirFilter",
    "MetricError",
    "ModScheme",
    "NoiseConfig",
    "OfdmParams",
    "PaprRow",
    "PaprSimError",
    "SCHEME_NAMES",
    "ShapeError",
    "add_awgn",
    "add_cyclic_prefix",
    "alternation_count",
    "amplitude_response",
    "band_gains",
    "ccdf_quantile",
    "clip_attenuation",
    "clip_baseband",
    "clip_passband",
    "composed_filter",
    "constellation_points",
    "default_hpf_spec",
    "demap_symbols",
    "design_equiripple",
    "downconvert",
    "emit_csv",
    "envelope_magnitude",
    "estimate_ccdf",
    "experiment_hpf",
    "frequency_response",
    "inserted_zero_bins",
    "map_bits",
    "noise_sigma",
    "ofdm_demodulate",
    "ofdm_modulate",
    "oversample_extend",
    "papr_db",
    "remove_cyclic_prefix",
    "rms",
    "run_ber_experiment",
    "run_papr_experiment",
    "simulate_chain_ber",
    "upconvert",
    "write_ber_curve_csv",
    "write_ccdf_csv",
]
