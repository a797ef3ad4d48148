"""The public API: ``paprsim.__all__`` is pinned name by name, so a name
that is added or removed shows up in review as a change to this list."""
import paprsim

PUBLIC_NAMES = [
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
    "OfdmParams",
    "PaprRow",
    "PaprSimError",
    "SCHEME_NAMES",
    "ShapeError",
    "add_awgn",
    "add_cyclic_prefix",
    "amplitude_response",
    "band_gains",
    "ccdf_quantile",
    "clip_attenuation",
    "clip_baseband",
    "composed_filter",
    "constellation_points",
    "default_hpf_spec",
    "demap_symbols",
    "demodulate_passband",
    "design_equiripple",
    "emit_csv",
    "envelope_magnitude",
    "estimate_ccdf",
    "experiment_hpf",
    "map_bits",
    "noise_sigma",
    "ofdm_modulate",
    "oversample_extend",
    "papr_db",
    "run_ber_experiment",
    "run_papr_experiment",
    "simulate_chain_ber",
    "upconvert",
    "write_ber_curve_csv",
    "write_ccdf_csv",
]


def test_all_is_the_pinned_sorted_list():
    assert len(PUBLIC_NAMES) == 44
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert paprsim.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(paprsim, name) is not None, name
