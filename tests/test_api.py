"""The public API: ``paprsim.__all__`` is pinned name by name, so a name
that is added or removed shows up in review as a change to this list."""
import numpy as np
import pytest

import paprsim
from paprsim import ConfigError, MetricError, OfdmParams, ShapeError

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
]


def test_all_is_the_pinned_sorted_list():
    assert len(PUBLIC_NAMES) == 41
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert paprsim.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(paprsim, name) is not None, name


_CURVE = paprsim.estimate_ccdf(np.arange(100.0), np.arange(0.0, 100.0))

# Each public scalar and how a call reaches it: a string raised TypeError,
# and True ran as 1.
SCALARS = {
    "clip_baseband amplitude": (lambda v: paprsim.clip_baseband(np.ones(4, complex), v),
                                ConfigError, "clip amplitude must be"),
    "noise_sigma signal_power": (
        lambda v: paprsim.noise_sigma(OfdmParams(), paprsim.ModScheme.from_name("qpsk"), 8.0, v),
        ConfigError, "signal_power must be"),
    "add_awgn sigma_n": (lambda v: paprsim.add_awgn(np.zeros(4), v, 0),
                         ConfigError, "sigma_n must be"),
    "ccdf_quantile p": (lambda v: paprsim.ccdf_quantile(_CURVE, v), MetricError, "p must lie"),
    "oversample_extend oversample": (lambda v: paprsim.oversample_extend(np.ones(4), v),
                                     ConfigError, "oversample factor must be"),
    "add_cyclic_prefix cp_samples": (lambda v: paprsim.add_cyclic_prefix(np.ones(4), v),
                                     ShapeError, "cp_samples = "),
    "clip_attenuation cr": (paprsim.clip_attenuation, ConfigError, "cr must be positive"),
}


@pytest.mark.parametrize("name, value", [
    *((name, value) for name in SCALARS for value in ("1", True)),
    ("oversample_extend oversample", 2.5),
    ("add_cyclic_prefix cp_samples", 1.5),
    ("clip_attenuation cr", -1.0),  # returned -1.0009
    ("clip_attenuation cr", float("nan")),  # returned NaN
], ids=repr)
def test_public_scalars_refuse_strings_bools_and_fractions(name, value):
    call, error, stem = SCALARS[name]
    with pytest.raises(error, match=stem):
        call(value)
