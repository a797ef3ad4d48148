import numpy as np
import pytest

from paprsim import (
    MetricError,
    ModScheme,
    OfdmParams,
    ShapeError,
    ccdf_quantile,
    estimate_ccdf,
    map_bits,
    ofdm_modulate,
    oversample_extend,
    papr_db,
)
from paprsim import harness

from oracles import brute_ccdf


def test_papr_constant_envelope():
    m = np.arange(256)
    sig = np.exp(2j * np.pi * 0.11 * m)
    assert papr_db(sig) == pytest.approx(0.0, abs=1e-9)


def test_papr_single_pulse():
    n = 64
    sig = np.zeros(n)
    sig[10] = 1.0
    assert papr_db(sig) == pytest.approx(10 * np.log10(n), abs=1e-12)


@pytest.mark.parametrize("samples, want", [
    (np.array([100, 1], np.int8), 10 * np.log10(2 * 100**2 / (100**2 + 1))),
    (np.array([2**32, 2**31]), 10 * np.log10(2 * 4 / 5)),
], ids=["int8", "int64"])
def test_papr_of_integer_samples_squares_in_floating_point(samples, want):
    # |x|^2 was squared in the integer type and wrapped: 2.747 dB for the
    # int8 pair and 3.010 dB for the int64 pair.
    assert papr_db(samples) == pytest.approx(want, rel=1e-12)


def test_papr_errors():
    with pytest.raises(ShapeError):
        papr_db(np.array([]))
    with pytest.raises(MetricError):
        papr_db(np.zeros(8))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 0)],
                         ids=["nan", "inf", "-inf", "inf_imag", "nan_real"])
def test_papr_refuses_a_non_finite_sample(bad):
    # Unchecked, a NaN sample or an infinite one gave nan with a
    # RuntimeWarning: a number, not a failure.
    samples = np.ones((2, 8), dtype=complex if isinstance(bad, complex) else float)
    samples[1, 3] = bad
    with pytest.raises(MetricError, match="NaN or infinite"):
        papr_db(samples)
    with pytest.raises(MetricError, match="NaN or infinite"):
        papr_db(samples[1])


def test_papr_converts_object_samples_before_its_checks():
    # Python ints past int64 and dtype=object numbers become floats, as
    # before the finiteness check; an object infinity is refused after.
    big = [2**70, 2**70, 2**71, 2**70]
    assert np.asarray(big).dtype == object
    assert papr_db(big) == pytest.approx(10 * np.log10(4 / 1.75))
    assert papr_db(np.array([1, 1, 2, 1], dtype=object)) == pytest.approx(10 * np.log10(4 / 1.75))
    with pytest.raises(MetricError, match="NaN or infinite"):
        papr_db(np.array([1, float("inf")], dtype=object))


def test_papr_per_block_along_last_axis():
    rng = np.random.default_rng(14)
    batch = rng.normal(size=(2, 3, 64)) + 1j * rng.normal(size=(2, 3, 64))
    got = papr_db(batch)
    assert got.shape == (2, 3)
    for i, j in np.ndindex(2, 3):
        assert got[i, j] == papr_db(batch[i, j])
    batch[1, 2] = 0.0  # one all-zero block is refused
    with pytest.raises(MetricError):
        papr_db(batch)


def test_papr_scale_invariant():
    rng = np.random.default_rng(0)
    sig = rng.normal(size=512) + 1j * rng.normal(size=512)
    base = papr_db(sig)
    for c in (3.0, -2.5, 1e-6, 2j):
        assert abs(papr_db(c * sig) - base) < 1e-9


def test_qpsk_baseband_papr_window():
    # Reduced-size sanity version of the distribution check; the acceptance
    # suite runs the full 10^4 frame estimate.
    params = OfdmParams()
    scheme = ModScheme("psk", 4)
    rng = np.random.default_rng(1)
    values = []
    for _ in range(2000):
        bits = rng.integers(0, 2, params.n_subcarriers * 2)
        bb = ofdm_modulate(oversample_extend(map_bits(bits, scheme), params.oversample), params)
        values.append(papr_db(bb))
    curve = estimate_ccdf(values, np.arange(0.0, 16.0, 0.05))
    q = ccdf_quantile(curve, 1e-2)
    assert 9.5 <= q <= 12.5


def test_ccdf_examples():
    curve = estimate_ccdf([1.0, 2.0, 3.0], [2.0])
    assert curve.prob_exceed[0] == pytest.approx(1.0 / 3.0)
    low = estimate_ccdf([0.1, 0.2], [1.0, 2.0])
    assert np.array_equal(low.prob_exceed, [0.0, 0.0])


def test_ccdf_matches_counting_oracle():
    rng = np.random.default_rng(2)
    values = rng.normal(size=10_000)
    thresholds = np.linspace(-3, 3, 121)
    curve = estimate_ccdf(values, thresholds)
    assert np.array_equal(curve.prob_exceed, brute_ccdf(values, thresholds))
    assert curve.sample_count == 10_000


def test_ccdf_monotone_bounded():
    rng = np.random.default_rng(3)
    curve = estimate_ccdf(rng.normal(size=5000), np.linspace(-4, 4, 200))
    assert np.all(np.diff(curve.prob_exceed) <= 0)
    assert np.all((curve.prob_exceed >= 0) & (curve.prob_exceed <= 1))


def test_ccdf_validation():
    with pytest.raises(ShapeError):
        estimate_ccdf([], [1.0])
    with pytest.raises(ShapeError):
        estimate_ccdf([1.0], [2.0, 1.0])


@pytest.mark.parametrize("thresholds", [[0.0, np.nan], [0.0, 5.0, np.inf], [-np.inf, 0.0]],
                         ids=["nan", "inf", "-inf"])
def test_ccdf_refuses_non_finite_thresholds(thresholds):
    # A NaN threshold passed the ascending check, and an infinite one made
    # ccdf_quantile return inf.
    with pytest.raises(ShapeError, match="thresholds must be finite"):
        estimate_ccdf([1.0, 2.0, 3.0], thresholds)


def test_ccdf_refuses_nan_values_and_counts_inf():
    # A NaN sorts above every threshold, so it would count as exceeding all.
    with pytest.raises(MetricError, match="NaN"):
        estimate_ccdf([1.0, np.nan], [0.0, 1.0])
    assert np.array_equal(estimate_ccdf([1.0, np.inf], [0.0, 1.0]).prob_exceed, [1.0, 0.5])


def test_a_curve_keeps_its_thresholds_when_the_callers_array_changes():
    thresholds = np.array([0.5, 1.5, 2.5])
    curve = estimate_ccdf([1.0, 2.0, 3.0], thresholds)
    thresholds[:] = 0.0
    assert np.array_equal(curve.thresholds_db, [0.5, 1.5, 2.5])
    assert not curve.thresholds_db.flags.writeable
    # Every PAPR curve of a run is built on the harness grid, which stays fixed.
    assert not harness.CCDF_THRESHOLDS_DB.flags.writeable


def test_quantile_exact_grid_point():
    curve = estimate_ccdf([1.0, 2.0, 3.0, 4.0], [0.5, 1.5, 2.5, 3.5])
    # prob_exceed = [1, .75, .5, .25]; p = 0.5 sits exactly on 2.5
    assert ccdf_quantile(curve, 0.5) == pytest.approx(2.5)


def test_quantile_out_of_range():
    curve = estimate_ccdf([1.0, 2.0, 3.0, 4.0], [0.5, 1.5, 2.5, 3.5])
    with pytest.raises(MetricError):
        ccdf_quantile(curve, 0.01)  # below the smallest achieved exceedance
    assert ccdf_quantile(curve, 0.25) == 3.5  # the smallest is in range
    with pytest.raises(MetricError):
        ccdf_quantile(curve, 1.0)  # boundary excluded by contract
    clipped_top = estimate_ccdf([1.0, 2.0, 3.0], [1.5, 2.5])  # prob starts at 2/3
    with pytest.raises(MetricError, match="achievable range"):
        ccdf_quantile(clipped_top, 0.9)


def test_quantile_matches_order_statistic():
    rng = np.random.default_rng(4)
    values = rng.normal(5.0, 2.0, 20_000)
    step = 0.05
    thresholds = np.arange(-3.0, 13.0, step)
    curve = estimate_ccdf(values, thresholds)
    for p in (0.5, 0.1, 0.01, 1e-3):
        got = ccdf_quantile(curve, p)
        order_stat = np.sort(values)[int(np.ceil((1 - p) * values.size)) - 1]
        assert abs(got - order_stat) <= step + 1e-9
