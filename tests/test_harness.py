import dataclasses
import math
from itertools import groupby

import numpy as np
import pytest

from paprsim import (
    ConfigError,
    DesignError,
    ExperimentError,
    ExperimentSpec,
    ModScheme,
    OfdmParams,
    clip_attenuation,
    experiment_hpf,
    run_ber_experiment,
    run_papr_experiment,
    simulate_chain_ber,
)
from paprsim import fir_design, harness

QPSK_ONLY = (ModScheme.from_name("qpsk"),)
PAIR_8 = (ModScheme.from_name("8psk"), ModScheme.from_name("8qam"))


def small_spec(**overrides):
    defaults = dict(schemes=QPSK_ONLY, cr_values=(1.0,), n_symbols=1500,
                    ebn0_grid_db=(8.0,), bits_per_point=20_000, ccdf_read_point=1e-2)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def test_spec_validation_messages():
    for cr in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="cr_values must be positive"):
            small_spec(cr_values=(cr,))
    with pytest.raises(ConfigError, match="n_symbols"):
        small_spec(n_symbols=500)
    with pytest.raises(ConfigError):
        small_spec(schemes=())
    with pytest.raises(ConfigError):
        small_spec(ccdf_read_point=1.5)


def test_spec_refuses_a_repeated_scheme_and_an_empty_cr_grid():
    with pytest.raises(ConfigError, match="^schemes must be unique$"):
        small_spec(schemes=QPSK_ONLY * 2)
    with pytest.raises(ConfigError, match="^cr_values must be non-empty$"):
        small_spec(cr_values=())


@pytest.mark.parametrize("field, value, message", [
    ("cr_values", ("1",), "cr_values must be positive and finite"),
    ("cr_values", (True,), "cr_values must be positive and finite"),
    ("cr_values", (1.0, None), "cr_values must be positive and finite"),
    ("ccdf_read_point", "0.01", "ccdf_read_point must lie strictly between 0 and 1"),
    ("ccdf_read_point", None, "ccdf_read_point must lie strictly between 0 and 1"),
    ("hpf_stop_edge", "0.2", "hpf edges must be numbers"),
    ("hpf_pass_edge", [0.2], "hpf edges must be numbers"),
    ("schemes", ("qpsk",), "schemes must hold ModScheme values"),
    ("schemes", (ModScheme.from_name("qpsk"), 4), "schemes must hold ModScheme values"),
    ("params", {"n_subcarriers": 64}, "params must be an OfdmParams"),
    ("params", None, "params must be an OfdmParams"),
    ("cr_values", 1.0, "cr_values must be a sequence"),
    ("ebn0_grid_db", 4.0, "ebn0_grid_db must be a sequence"),
    ("schemes", ModScheme.from_name("qpsk"), "schemes must be a sequence"),
    ("cr_values", "1.0", "cr_values must be a sequence"),
], ids=repr)
def test_spec_fields_of_the_wrong_type_are_config_errors(field, value, message):
    # Unchecked, each raised a TypeError or an AttributeError, or (True as a
    # CR) ran as CR 1. A bare number or scheme in place of a grid raised
    # "TypeError: ... is not iterable".
    with pytest.raises(ConfigError, match=message):
        small_spec(**{field: value})


def test_repeated_grid_values_are_refused():
    # Cells are keyed by value, so a repeated value collapses its cells:
    # unchecked, cr_values (1.0, 1.0) x ebn0_grid_db (8.0, 8.0) computed four
    # BER cells and reported one of them four times. CR values are also
    # refused when their curve-file tags ({cr:g}) are equal.
    for cr_values in ((1.0, 1.0), (0.8, 1.2, 0.8), (1.0, 1.0000001)):
        with pytest.raises(ConfigError, match="cr_values must be distinct"):
            small_spec(cr_values=cr_values)
    for grid in ((8.0, 8.0), (0.0, -0.0), (4.0, 8.0, 4.0)):
        with pytest.raises(ConfigError, match="ebn0_grid_db values must be distinct"):
            small_spec(ebn0_grid_db=grid)
    assert small_spec(cr_values=(1.0, 1.00001), ebn0_grid_db=(8.0, 8.5))


@pytest.mark.parametrize("seed", [-3, 1.5, "7", True, None], ids=repr)
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        small_spec(seed=seed)
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        simulate_chain_ber(OfdmParams(), QPSK_ONLY[0], min_bits=1000, seed=seed)


def test_seed_accepts_any_non_negative_integer():
    for seed in (0, np.int64(5), 2**70):
        assert small_spec(seed=seed).seed == seed
        assert simulate_chain_ber(OfdmParams(), QPSK_ONLY[0], min_bits=1000, seed=seed)[0] == 0


@pytest.mark.parametrize("min_bits", [-5, 0, 2.5], ids=repr)
def test_min_bits_must_be_a_positive_integer(min_bits):
    # Unchecked, each of these ran one 256-bit QPSK frame.
    with pytest.raises(ConfigError, match="min_bits must be a positive integer"):
        simulate_chain_ber(OfdmParams(), QPSK_ONLY[0], min_bits=min_bits)


@pytest.mark.parametrize("cr", [-1.0, 0.0, float("nan"), float("inf"), "1", True], ids=repr)
def test_chain_ber_refuses_a_non_positive_or_non_finite_cr(cr):
    # Unchecked, cr = -1 returned a plausible count (the phase-flipped clip
    # divided by a negative Bussgang gain), 0 a ZeroDivisionError, NaN a
    # ShapeError in the demapper and inf a RuntimeWarning, then a ShapeError;
    # "1" raised a TypeError and True ran as CR 1.
    hpf = experiment_hpf(ExperimentSpec())
    with pytest.raises(ConfigError, match="cr must be positive and finite"):
        simulate_chain_ber(OfdmParams(), QPSK_ONLY[0], cr=cr, min_bits=1000, hpf=hpf)


@pytest.mark.parametrize("ebn0_db", ["4", True, float("nan")], ids=repr)
def test_chain_ber_refuses_a_non_number_ebn0(monkeypatch, ebn0_db):
    # Unchecked, "4" raised a TypeError and True ran as 1 dB. Checked only
    # by noise_sigma, each was refused after the unit had drawn its bits,
    # transmitted and drawn its normals.
    draws = []
    monkeypatch.setattr(harness, "_random_bits", lambda *args: draws.append(args))
    with pytest.raises(ConfigError, match="ebn0_db must be a finite number"):
        simulate_chain_ber(OfdmParams(), QPSK_ONLY[0], ebn0_db=ebn0_db, min_bits=1000)
    assert draws == []


@pytest.mark.parametrize("argument, value, message", [
    ("params", ExperimentSpec(), "params must be an OfdmParams"),
    ("scheme", "qpsk", "scheme must be a ModScheme"),
    ("hpf", np.ones(81), "hpf must be None or a FirFilter"),
], ids=["params", "scheme", "hpf"])
def test_chain_ber_refuses_a_wrongly_typed_argument(monkeypatch, argument, value, message):
    # Each raised AttributeError deep in the unit: the params in the band
    # read, the scheme in the frame size, the hpf in the composed filter.
    draws = []
    monkeypatch.setattr(harness, "_random_bits", lambda *args: draws.append(args))
    arguments = dict(params=OfdmParams(), scheme=QPSK_ONLY[0],
                     hpf=experiment_hpf(ExperimentSpec()))
    arguments[argument] = value
    with pytest.raises(ConfigError, match=message):
        simulate_chain_ber(arguments.pop("params"), arguments.pop("scheme"), cr=1.2,
                           min_bits=1000, **arguments)
    assert draws == []


def test_chain_ber_refuses_a_clip_without_a_high_pass_before_drawing(monkeypatch):
    draws = []
    monkeypatch.setattr(harness, "_random_bits", lambda *args: draws.append(args))
    with pytest.raises(ConfigError, match="^clipping requested but no high-pass filter supplied$"):
        simulate_chain_ber(OfdmParams(), QPSK_ONLY[0], cr=1.0, min_bits=1000)
    assert draws == []


def test_a_list_built_spec_stores_tuples_and_ignores_later_changes():
    # The spec kept the caller's lists: appending -1.0 to cr_values after
    # validation made run_papr_experiment return a row for CR -1.
    schemes, crs, grid = list(QPSK_ONLY), [1.0], [8.0]
    spec = small_spec(schemes=schemes, cr_values=crs, ebn0_grid_db=grid)
    assert (spec.schemes, spec.cr_values, spec.ebn0_grid_db) == (QPSK_ONLY, (1.0,), (8.0,))
    schemes.append(PAIR_8[0])
    crs.append(-1.0)
    grid.append(float("nan"))
    assert spec == small_spec() and hash(spec) == hash(small_spec())
    assert [row.cr for row in run_papr_experiment(spec).rows] == [1.0]


@pytest.mark.parametrize("key,value", [("n_symbols", 1500.5), ("bits_per_point", 2000.5)],
                         ids=["n_symbols", "bits_per_point"])
def test_spec_counts_must_be_positive_integers(key, value):
    # Unchecked, n_symbols = 1500.5 failed inside the PAPR cell as an
    # ExperimentError, and bits_per_point = 2000.5 ran.
    with pytest.raises(ConfigError, match=f"{key} must be a positive integer"):
        small_spec(**{key: value})


def test_counts_accept_numpy_integers():
    spec = small_spec(n_symbols=np.int64(1500), bits_per_point=np.int64(20_000))
    assert (spec.n_symbols, spec.bits_per_point) == (1500, 20_000)
    assert simulate_chain_ber(OfdmParams(), QPSK_ONLY[0], min_bits=np.int64(1000)) == (0, 1024)


def test_read_point_needs_ten_expected_exceedances():
    # n_symbols * ccdf_read_point >= 10: the reference and benchmark products
    # sit exactly on the boundary and are accepted.
    for n_symbols, read_point in ((1000, 1e-2), (10_000, 1e-3), (100_000, 1e-4), (1500, 1e-2)):
        assert small_spec(n_symbols=n_symbols, ccdf_read_point=read_point)
    for n_symbols, read_point in ((1000, 1e-3), (1000, 9.99e-3), (10_000, 1e-4), (99_999, 1e-4)):
        with pytest.raises(ConfigError, match="expected exceedances"):
            small_spec(n_symbols=n_symbols, ccdf_read_point=read_point)


@pytest.mark.parametrize("value", [None, "4", float("nan"), float("inf"), True], ids=repr)
def test_ebn0_grid_values_must_be_finite_numbers(value):
    # None and a string raised numpy's TypeError from np.isfinite; True ran
    # as 1 dB.
    with pytest.raises(ConfigError, match="ebn0_grid_db values must be finite numbers"):
        small_spec(ebn0_grid_db=(8.0, value))


@pytest.fixture
def designs(monkeypatch):
    """Specs of the high-pass designs run from here on, with an empty cache."""
    calls = []
    design = fir_design.design_equiripple

    def counted(spec):
        calls.append(spec)
        return design(spec)

    monkeypatch.setattr(fir_design, "design_equiripple", counted)
    harness._design_hpf.cache_clear()
    return calls


def test_an_empty_ebn0_grid_is_refused_before_the_design(designs):
    # It designed the high-pass and returned rows=().
    spec = small_spec(ebn0_grid_db=())
    with pytest.raises(ConfigError, match="ebn0_grid_db must be non-empty"):
        run_ber_experiment(spec)
    assert designs == []
    assert len(run_papr_experiment(spec).rows) == 1


def test_both_experiments_of_one_spec_share_one_design(designs):
    spec = small_spec()
    papr = run_papr_experiment(spec)
    ber = run_ber_experiment(spec)
    assert len(designs) == 1
    harness._design_hpf.cache_clear()
    assert papr.rows == run_papr_experiment(spec).rows and ber == run_ber_experiment(spec)
    assert len(designs) == 2


def test_the_cache_is_hit_by_an_equal_design_target_only(designs):
    # Specs that differ only in seed, schemes, CRs or sizes share the
    # design target, so they share one design; each experiment of a
    # benchmark or a sweep draws a new seed. Another target designs again,
    # and coming back to the first designs it again: one target is kept.
    spec = small_spec(seed=1)
    hpf = experiment_hpf(spec)
    for other in (spec, dataclasses.replace(spec), small_spec(seed=2), small_spec(schemes=PAIR_8),
                  small_spec(cr_values=(0.8, 1.4)),
                  small_spec(n_symbols=3000, bits_per_point=50_000, ebn0_grid_db=(4.0, 8.0))):
        assert experiment_hpf(other) is hpf
    assert len(designs) == 1
    assert experiment_hpf(small_spec(hpf_num_taps=61)).spec.num_taps == 61
    assert experiment_hpf(spec).spec == hpf.spec
    assert designs == [hpf.spec, designs[1], hpf.spec]


def test_a_design_that_raises_is_not_kept(designs, monkeypatch):
    spec = small_spec()
    design = fir_design.design_equiripple

    def fail_once(target):
        monkeypatch.setattr(fir_design, "design_equiripple", design)
        raise DesignError("no minimax")

    monkeypatch.setattr(fir_design, "design_equiripple", fail_once)
    with pytest.raises(DesignError):
        run_papr_experiment(spec)
    assert harness._design_hpf.cache_info().currsize == 0
    experiment_hpf(spec)
    assert designs == [experiment_hpf(spec).spec]


def test_degenerate_clip_matches_unclipped():
    spec = small_spec(cr_values=(1e6,))
    row = run_papr_experiment(spec).rows[0]
    assert row.papr_db_clipped_filtered == pytest.approx(row.papr_db_unclipped, abs=0.1)


def test_papr_quantile_monotone_in_cr():
    spec = small_spec(cr_values=(0.8, 1.2, 1.6), n_symbols=2000)
    rows = run_papr_experiment(spec).rows
    values = [r.papr_db_clipped_filtered for r in sorted(rows, key=lambda r: r.cr)]
    assert values[0] <= values[1] <= values[2]


def test_papr_difference_column_sign():
    spec = small_spec(schemes=PAIR_8, cr_values=(1.0,), n_symbols=1500)
    rows = run_papr_experiment(spec).rows
    by_scheme = {r.scheme: r for r in rows}
    want = (by_scheme["8psk"].papr_db_clipped_filtered
            - by_scheme["8qam"].papr_db_clipped_filtered)
    assert by_scheme["8psk"].difference_db == pytest.approx(want)
    assert by_scheme["8qam"].difference_db == pytest.approx(want)


def test_papr_difference_none_without_pair():
    rows = run_papr_experiment(small_spec()).rows
    assert rows[0].difference_db is None


def test_papr_curves_present_and_consistent():
    spec = small_spec()
    result = run_papr_experiment(spec)
    curves = result.curves[("qpsk", 1.0)]
    assert curves.clipped.sample_count == spec.n_symbols
    assert np.all(np.diff(curves.clipped.prob_exceed) <= 0)
    # clipped+filtered curve sits left of the unclipped one at the read point
    assert result.rows[0].papr_db_clipped_filtered < result.rows[0].papr_db_unclipped


def test_experiment_determinism():
    spec = small_spec()
    a = run_papr_experiment(spec)
    b = run_papr_experiment(spec)
    assert a.rows == b.rows
    ber_a = run_ber_experiment(spec)
    ber_b = run_ber_experiment(spec)
    assert ber_a.rows == ber_b.rows


def test_seed_changes_results():
    base = run_papr_experiment(small_spec()).rows[0]
    other = run_papr_experiment(small_spec(seed=999)).rows[0]
    assert base.papr_db_clipped_filtered != other.papr_db_clipped_filtered


def test_ber_rows_structure():
    spec = small_spec(schemes=PAIR_8)
    rows = run_ber_experiment(spec).rows
    assert len(rows) == 2
    for row in rows:
        assert 0.0 <= row.ber <= 1.0
        assert row.bits_total >= spec.bits_per_point
        assert row.bit_errors == round(row.ber * row.bits_total)
    by_scheme = {r.scheme: r for r in rows}
    want = by_scheme["8psk"].ber - by_scheme["8qam"].ber
    assert by_scheme["8psk"].difference == pytest.approx(want)


def test_ber_runs_with_custom_hpf_taps():
    spec = small_spec(hpf_num_taps=31, hpf_stop_edge=0.125, hpf_pass_edge=0.1875)
    rows = run_ber_experiment(spec).rows
    assert len(rows) == 1


def test_clipped_ber_is_not_guessing_where_the_image_filter_diverged():
    # small_specs plan p02, on which a 31-tap image-reject low-pass has no
    # minimax design (taps up to 2e8 from the exchange's last pass). A
    # receiver that filtered over the prefix with it, whose noise is not the
    # tail noise it stands in for, amplified that mismatch into coin-flip
    # decisions (10087/20160 bits wrong). The BER must reject 1/2 at
    # alpha = 1e-6, with bit errors counted per symbol as the benchmark does.
    params = OfdmParams(n_subcarriers=64, oversample=14, carrier_hz=5.75e6, cp_len=16)
    scheme = ModScheme.from_name("8psk")
    spec = small_spec(params=params, schemes=(scheme,), hpf_num_taps=115, seed=3)
    (row,) = run_ber_experiment(spec).rows
    k = round(row.bit_errors / scheme.bits_per_symbol)
    n = round(row.bits_total / scheme.bits_per_symbol)
    z = max(abs(k - n / 2) - 0.5, 0.0) / math.sqrt(n / 4)
    assert math.erfc(z / math.sqrt(2.0)) <= 1e-6, (row.bit_errors, row.bits_total)


# f_c = BW/2 puts the band edge k_c - N/2 on DC, where a real passband keeps
# only the real part of X[N/2]'s lower copy; the receiver reads the upper one.
DC_EDGE = OfdmParams(n_subcarriers=64, oversample=4, carrier_hz=0.5e6, cp_len=16)


def test_dc_edge_plan_runs_papr_and_ber():
    spec = small_spec(params=DC_EDGE, hpf_stop_edge=0.01, hpf_pass_edge=0.03)
    (papr,) = run_papr_experiment(spec).rows
    assert 0.0 < papr.papr_db_clipped_filtered < papr.papr_db_unclipped
    (ber,) = run_ber_experiment(spec).rows
    assert ber.bits_total >= spec.bits_per_point
    assert 0.0 <= ber.ber < 0.5


def test_oversample_two_is_refused_up_front():
    # L = 2 leaves f_c = BW/2 as the only carrier: the band fills [0, f_s/2]
    # and both copies of X[N/2] lose their imaginary part.
    params = OfdmParams(n_subcarriers=64, oversample=2, carrier_hz=0.5e6, cp_len=16)
    with pytest.raises(ConfigError, match="oversample = 2"):
        small_spec(params=params, hpf_stop_edge=0.01, hpf_pass_edge=0.03)
    with pytest.raises(ConfigError, match="oversample = 2"):
        simulate_chain_ber(params, ModScheme.from_name("qpsk"), min_bits=1000, seed=5)


@pytest.mark.parametrize(
    "params, scheme",
    [
        # small_specs p00: band edge k_c + N/2 on the Nyquist bin, where the
        # channel keeps only the real part of X[N/2]'s upper copy.
        (OfdmParams(n_subcarriers=128, oversample=5, carrier_hz=2e6), "16qam"),
        # small_specs p18: a 31-tap image-reject low-pass has no minimax
        # design here (see test_fir_design), and the receiver needs none.
        (OfdmParams(n_subcarriers=128, oversample=12, carrier_hz=4.75e6), "8psk"),
        *((DC_EDGE, name) for name in ("qpsk", "8qam", "16qam", "32qam")),
    ],
    ids=["p00_nyquist_edge", "p18_first_pass_lowpass",
         "dc_edge_qpsk", "dc_edge_8qam", "dc_edge_16qam", "dc_edge_32qam"],
)
def test_noiseless_loopback_has_no_bit_errors(params, scheme):
    errors, total = simulate_chain_ber(params, ModScheme.from_name(scheme), min_bits=40_000,
                                       seed=5)
    assert total >= 40_000
    assert errors == 0


def test_experiment_error_context(monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("inner failure")

    monkeypatch.setattr(harness, "_papr_cell", boom)
    with pytest.raises(ExperimentError, match=r"scheme=qpsk, cr=1"):
        run_papr_experiment(small_spec())


def test_papr_progress_once_per_cell_in_order_and_no_bits_before_it(monkeypatch):
    # The benchmark times a cell from its progress call to the next one, so
    # each unit's bit draws must follow its first cell's call. A scheme is
    # one unit, whose first CR cell draws the bits that every CR clips.
    events = []
    draw = harness._random_bits

    def spy(rng, n_frames, bits_per_frame):
        events.append("bits")
        return draw(rng, n_frames, bits_per_frame)

    monkeypatch.setattr(harness, "_random_bits", spy)
    spec = small_spec(schemes=(QPSK_ONLY[0], PAIR_8[1]), cr_values=(1.0, 1.4))
    run_papr_experiment(spec, progress=events.append)
    expected = []
    for scheme in spec.schemes:
        expected += [f"papr {scheme.name} cr=1", "bits", f"papr {scheme.name} cr=1.4"]
    # A unit draws its bits one chunk at a time; its draws collapse to one.
    assert [event for event, _ in groupby(events)] == expected


def test_clip_attenuation_limits():
    assert clip_attenuation(8.0) == pytest.approx(1.0, abs=1e-9)
    assert 0.0 < clip_attenuation(0.3) < clip_attenuation(1.0) < 1.0


def test_default_spec_mirrors_reference_parameters():
    spec = ExperimentSpec()
    assert spec.params == OfdmParams(128, 8, 1e6, 2e6, 32)
    assert spec.cr_values == (0.8, 1.0, 1.2, 1.4, 1.6)
    assert [s.name for s in spec.schemes] == [
        "qpsk", "qam", "8psk", "8qam", "16psk", "16qam", "32psk", "32qam"]
    assert spec.n_symbols == 10_000
    assert spec.bits_per_point == 200_000
    assert spec.ccdf_read_point == 1e-3
