import csv
import math
from dataclasses import dataclass

import numpy as np
import pytest

from paprsim import (
    ConfigError,
    ExperimentError,
    ExperimentSpec,
    ModScheme,
    OfdmParams,
    clip_attenuation,
    emit_csv,
    estimate_ccdf,
    experiment_hpf,
    run_ber_experiment,
    run_papr_experiment,
    simulate_chain_ber,
    write_ber_curve_csv,
    write_ccdf_csv,
)

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


@pytest.mark.parametrize("cr", [-1.0, 0.0, float("nan"), float("inf")], ids=repr)
def test_chain_ber_refuses_a_non_positive_or_non_finite_cr(cr):
    # Unchecked, cr = -1 returned a plausible count (the phase-flipped clip
    # divided by a negative Bussgang gain), 0 a ZeroDivisionError, NaN a
    # ShapeError in the demapper and inf a RuntimeWarning, then a ShapeError.
    hpf = experiment_hpf(ExperimentSpec())
    with pytest.raises(ConfigError, match="cr must be positive and finite"):
        simulate_chain_ber(OfdmParams(), QPSK_ONLY[0], cr=cr, min_bits=1000, hpf=hpf)


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
    import paprsim.harness as harness

    def boom(*args, **kwargs):
        raise ValueError("inner failure")

    monkeypatch.setattr(harness, "_papr_cell", boom)
    with pytest.raises(ExperimentError, match=r"scheme=qpsk, cr=1"):
        run_papr_experiment(small_spec())


def test_clip_attenuation_limits():
    assert clip_attenuation(8.0) == pytest.approx(1.0, abs=1e-9)
    assert 0.0 < clip_attenuation(0.3) < clip_attenuation(1.0) < 1.0


@dataclass(frozen=True)
class Row:
    name: str
    value: float
    count: int
    note: str | None


def test_emit_csv_round_trip(tmp_path):
    rows = [Row("a", 0.1 + 0.2, 3, None), Row("b", 1e-17, 0, "x")]
    path = emit_csv(rows, tmp_path / "out.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        records = list(csv.DictReader(fh))
    assert float(records[0]["value"]) == 0.1 + 0.2  # exact round trip
    assert records[0]["note"] == ""
    assert records[1]["name"] == "b"
    assert int(records[1]["count"]) == 0


def test_emit_csv_empty_rows(tmp_path):
    path = emit_csv([], tmp_path / "empty.csv", columns=["a", "b"])
    assert path.read_bytes() == b"a,b\r\n"
    with pytest.raises(ConfigError):
        emit_csv([], tmp_path / "bad.csv")


def test_emit_csv_deterministic_bytes(tmp_path):
    rows = [Row("a", 1.25, 1, None)]
    p1 = emit_csv(rows, tmp_path / "one.csv")
    p2 = emit_csv(rows, tmp_path / "two.csv")
    assert p1.read_bytes() == p2.read_bytes()


def test_curve_csv_writers(tmp_path):
    curve = estimate_ccdf([1.0, 2.0, 3.0], [0.5, 1.5, 2.5])
    path = write_ccdf_csv(curve, tmp_path / "c.csv")
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "threshold_db,prob_exceed,sample_count"
    assert len(lines) == 4
    ber_path = write_ber_curve_csv([(4.0, 0.01, 1000)], tmp_path / "b.csv")
    assert "ebn0_db,ber,sample_count" in ber_path.read_text(encoding="utf-8")


def test_default_spec_mirrors_reference_parameters():
    spec = ExperimentSpec()
    assert spec.params == OfdmParams(128, 8, 1e6, 2e6, 32)
    assert spec.cr_values == (0.8, 1.0, 1.2, 1.4, 1.6)
    assert [s.name for s in spec.schemes] == [
        "qpsk", "qam", "8psk", "8qam", "16psk", "16qam", "32psk", "32qam"]
    assert spec.n_symbols == 10_000
    assert spec.bits_per_point == 200_000
    assert spec.ccdf_read_point == 1e-3
