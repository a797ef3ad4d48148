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


def test_papr_errors():
    with pytest.raises(ShapeError):
        papr_db(np.array([]))
    with pytest.raises(MetricError):
        papr_db(np.zeros(8))


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


def test_quantile_exact_grid_point():
    curve = estimate_ccdf([1.0, 2.0, 3.0, 4.0], [0.5, 1.5, 2.5, 3.5])
    # prob_exceed = [1, .75, .5, .25]; p = 0.5 sits exactly on 2.5
    assert ccdf_quantile(curve, 0.5) == pytest.approx(2.5)


def test_quantile_out_of_range():
    curve = estimate_ccdf([1.0, 2.0, 3.0, 4.0], [0.5, 1.5, 2.5, 3.5])
    with pytest.raises(MetricError):
        ccdf_quantile(curve, 0.01)  # below the smallest achieved exceedance
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
