import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from paprsim import (
    ConfigError,
    DesignError,
    FirDesignSpec,
    OfdmParams,
    amplitude_response,
    default_hpf_spec,
    design_equiripple,
)

from paprsim import fir_design
from oracles import (
    ORACLE_PLANS,
    alternation_count,
    chebyshev_lp_ripple,
    dense_qr_coefficients,
    dense_ripple,
    frequency_response,
    lstsq_coefficients,
    select_extrema_by_loop,
    weighted_error,
)

LOWPASS = FirDesignSpec(31, ((0.0, 0.20), (0.26, 0.5)), (1.0, 0.0), (1.0, 1.0))
IMAGE_LPF = FirDesignSpec(31, ((0.0, 0.0625), (0.25, 0.5)), (1.0, 0.0), (1.0, 1.0))
DEFAULT_HPF = default_hpf_spec(OfdmParams())


def test_allpass_is_impulse():
    fir = design_equiripple(FirDesignSpec(21, ((0.0, 0.5),), (1.0,), (1.0,)))
    impulse = np.zeros(21)
    impulse[10] = 1.0
    assert np.allclose(fir.taps, impulse, atol=1e-9)
    assert fir.ripple < 1e-9


def test_lowpass_ripple_matches_lp_oracle():
    fir = design_equiripple(LOWPASS)
    oracle = chebyshev_lp_ripple(LOWPASS, n_grid=2048)
    assert fir.ripple == pytest.approx(oracle, rel=0.01)


@pytest.mark.parametrize("spec", [LOWPASS, IMAGE_LPF, DEFAULT_HPF], ids=["lp", "image", "hpf"])
def test_alternation_count(spec):
    fir = design_equiripple(spec)
    assert alternation_count(fir) >= (spec.num_taps + 1) // 2 + 1


@pytest.mark.parametrize("spec", [LOWPASS, IMAGE_LPF, DEFAULT_HPF], ids=["lp", "image", "hpf"])
def test_symmetry_exact(spec):
    fir = design_equiripple(spec)
    assert np.array_equal(fir.taps, fir.taps[::-1])


def test_default_hpf_stopband_attenuation():
    fir = design_equiripple(DEFAULT_HPF)
    stop_lo, stop_hi = DEFAULT_HPF.bands[0]
    grid = np.linspace(stop_lo, stop_hi, 4096)
    attenuation = -20.0 * np.log10(np.max(np.abs(amplitude_response(fir, grid))))
    assert attenuation >= 40.0


def test_linear_phase():
    fir = design_equiripple(LOWPASS)
    grid = np.linspace(0.0, 0.5, 1000)
    h = frequency_response(fir, grid)
    delay_term = 2.0 * np.pi * grid * fir.group_delay
    residual = np.angle(h * np.exp(1j * delay_term))
    keep = np.abs(h) > 1e-8
    # Phase is 0 or pi after removing the linear term.
    assert np.max(np.abs(np.sin(residual[keep]))) < 1e-6


def test_frequency_response_impulse():
    fir = design_equiripple(FirDesignSpec(21, ((0.0, 0.5),), (1.0,), (1.0,)))
    grid = np.linspace(0.0, 0.5, 64)
    assert np.allclose(np.abs(frequency_response(fir, grid)), 1.0, atol=1e-9)


def test_frequency_response_two_tap_closed_form():
    # H(f) for taps [0.5, 0.5] is cos(pi f) with linear phase.
    from paprsim.fir_design import FirFilter

    fir = FirFilter(taps=np.array([0.5, 0.5]), spec=LOWPASS, ripple=1.0)
    h = frequency_response(fir, [0.0, 0.5])
    assert abs(h[0] - 1.0) < 1e-12
    assert abs(h[1]) < 1e-12


def test_stored_ripple_matches_dense_grid():
    for spec in (LOWPASS, DEFAULT_HPF):
        fir = design_equiripple(spec)
        _, err = weighted_error(fir, 4096)
        assert np.max(np.abs(err)) == pytest.approx(fir.ripple, rel=0.01)


def test_amplitude_matches_magnitude():
    fir = design_equiripple(LOWPASS)
    grid = np.linspace(0.0, 0.5, 500)
    assert np.allclose(np.abs(amplitude_response(fir, grid)),
                       np.abs(frequency_response(fir, grid)), atol=1e-10)


def test_levelled_delta_monotone_non_decreasing():
    # The exchange's levelled reference error grows toward the minimax value,
    # and both histories end at the returned pass, the best one.
    for spec in (LOWPASS, IMAGE_LPF, DEFAULT_HPF):
        fir = design_equiripple(spec)
        assert len(fir.delta_history) == len(fir.error_history)
        assert fir.error_history[-1] == min(fir.error_history)
        deltas = np.array(fir.delta_history)
        assert np.all(np.diff(deltas) >= -1e-12)
        assert deltas[-1] == pytest.approx(fir.ripple, rel=0.01)


def test_weighted_design_ripple_ratio():
    spec = FirDesignSpec(41, ((0.0, 0.18), (0.24, 0.5)), (1.0, 0.0), (1.0, 10.0))
    fir = design_equiripple(spec)
    freqs, err = weighted_error(fir, 4096)
    pass_err = np.max(np.abs(err[freqs <= 0.18])) / 1.0
    stop_err = np.max(np.abs(err[freqs >= 0.24])) / 10.0
    # Weighted errors equalize, so raw band errors differ by the weight ratio.
    assert pass_err / stop_err == pytest.approx(10.0, rel=0.05)


def test_spec_validation():
    with pytest.raises(ConfigError):
        FirDesignSpec(30, ((0.0, 0.2), (0.3, 0.5)), (1.0, 0.0), (1.0, 1.0))  # even taps
    for taps in (31.5, 31.0):  # unchecked, each failed in the design with a TypeError
        with pytest.raises(ConfigError, match="num_taps must be an odd integer"):
            FirDesignSpec(taps, ((0.0, 0.2), (0.3, 0.5)), (1.0, 0.0), (1.0, 1.0))
    with pytest.raises(ConfigError):
        FirDesignSpec(31, ((0.0, 0.3), (0.2, 0.5)), (1.0, 0.0), (1.0, 1.0))  # overlap
    with pytest.raises(ConfigError):
        FirDesignSpec(31, ((0.0, 0.2), (0.2, 0.5)), (1.0, 0.0), (1.0, 1.0))  # empty gap
    with pytest.raises(ConfigError):
        FirDesignSpec(31, ((0.0, 0.6),), (1.0,), (1.0,))  # edge beyond 0.5
    with pytest.raises(ConfigError):
        FirDesignSpec(31, ((0.0, 0.2),), (1.0,), (0.0,))  # zero weight
    # Unchecked, each design warned of invalid values in numpy and then
    # failed with "no pass with a finite error".
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigError, match="weights must be positive and finite"):
            FirDesignSpec(31, ((0.0, 0.2), (0.3, 0.5)), (1.0, 0.0), (1.0, bad))
        with pytest.raises(ConfigError, match="desired gains must be finite"):
            FirDesignSpec(31, ((0.0, 0.2), (0.3, 0.5)), (bad, 0.0), (1.0, 1.0))
    # Unchecked, a string raised a TypeError and a bool ran as 0 or 1.
    for bands in (((False, 0.2), (0.3, 0.5)), ((0.0, 0.2), ("0.3", 0.5))):
        with pytest.raises(ConfigError, match="band"):
            FirDesignSpec(31, bands, (1.0, 0.0), (1.0, 1.0))
    for bad in ("1", True):
        with pytest.raises(ConfigError, match="weights must be positive and finite"):
            FirDesignSpec(31, ((0.0, 0.2), (0.3, 0.5)), (1.0, 0.0), (1.0, bad))
        with pytest.raises(ConfigError, match="desired gains must be finite"):
            FirDesignSpec(31, ((0.0, 0.2), (0.3, 0.5)), (bad, 0.0), (1.0, 1.0))


@pytest.mark.parametrize("bands, desired, weights", [
    (5, (1.0,), (1.0,)),
    (((0.0, 0.2, 0.3),), (1.0,), (1.0,)),
    ((0.2,), (1.0,), (1.0,)),
    (((0.0, 0.2),), 0, (1.0,)),
    (((0.0, 0.2),), (1.0,), 1.0),
], ids=["bands=5", "a three-edge band", "a scalar band", "desired=0", "weights=1.0"])
def test_a_malformed_spec_is_a_config_error(bands, desired, weights):
    # Unchecked, each raised a TypeError or a ValueError.
    with pytest.raises(ConfigError, match=r"bands must be a sequence of \(low, high\) pairs"):
        FirDesignSpec(31, bands, desired, weights)


@pytest.mark.parametrize("desired, weights", [((1.0,), (1.0, 1.0)), ((1.0, 0.0), (1.0,))],
                         ids=["short desired", "short weights"])
def test_a_spec_whose_lists_differ_in_length_is_refused(desired, weights):
    with pytest.raises(ConfigError,
                       match="^bands, desired, and weights must have equal lengths$"):
        FirDesignSpec(31, ((0.0, 0.2), (0.3, 0.5)), desired, weights)


def test_a_list_built_spec_stores_tuples_and_ignores_later_changes():
    bands, desired, weights = [[0.0, 0.2], [0.3, 0.5]], [1.0, 0.0], [1.0, 1.0]
    spec = FirDesignSpec(31, bands, desired, weights)
    bands[1][0] = 0.1
    desired.append(1.0)
    weights[0] = -1.0
    assert spec == FirDesignSpec(31, ((0.0, 0.2), (0.3, 0.5)), (1.0, 0.0), (1.0, 1.0))
    assert hash(spec) == hash(FirDesignSpec(31, ((0.0, 0.2), (0.3, 0.5)), (1.0, 0.0), (1.0, 1.0)))


def test_infeasible_hpf_band_plan():
    # Carrier at BW/2 puts the default stopband edge at or below DC.
    with pytest.raises(ConfigError):
        default_hpf_spec(OfdmParams(carrier_hz=0.5e6, bandwidth_hz=1e6, oversample=8))


# The 64 band plans of the benchmark's small_specs workload: (N, L, f_c in
# MHz at 1 MHz bandwidth, high-pass taps), in plan order p00..p63.
SMALL_PLANS = (
    (128, 5, 2.0, 41), (256, 9, 2.75, 65), (64, 14, 5.75, 115), (64, 11, 3.75, 51),
    (64, 16, 5.5, 139), (64, 14, 5.25, 49), (128, 6, 2.25, 117), (128, 16, 4.5, 127),
    (256, 11, 3.0, 99), (128, 8, 2.5, 51), (64, 13, 2.0, 55), (128, 5, 1.0, 65),
    (64, 14, 3.0, 105), (256, 16, 6.5, 137), (256, 14, 5.75, 93), (256, 14, 4.25, 53),
    (128, 11, 1.0, 117), (64, 14, 5.0, 53), (128, 12, 4.75, 83), (128, 10, 1.0, 85),
    (256, 8, 3.0, 159), (256, 6, 2.0, 127), (256, 10, 1.75, 101), (128, 10, 4.0, 65),
    (64, 13, 1.75, 103), (64, 16, 6.0, 151), (64, 10, 1.75, 91), (64, 13, 2.0, 105),
    (64, 11, 2.25, 135), (256, 11, 2.0, 131), (64, 16, 6.75, 151), (128, 9, 1.0, 141),
    (128, 14, 5.75, 135), (128, 16, 5.5, 147), (128, 9, 1.0, 149), (256, 15, 4.25, 109),
    (256, 13, 3.25, 129), (256, 11, 3.25, 85), (64, 10, 1.0, 129), (128, 16, 6.0, 121),
    (64, 16, 4.75, 105), (64, 13, 1.0, 61), (128, 14, 4.25, 123), (128, 12, 3.75, 115),
    (64, 13, 1.5, 119), (256, 10, 2.75, 123), (128, 15, 1.0, 113), (128, 10, 3.5, 115),
    (256, 14, 5.5, 97), (256, 16, 2.5, 43), (256, 5, 1.75, 79), (128, 7, 1.25, 67),
    (64, 10, 3.0, 137), (128, 16, 3.25, 63), (128, 9, 2.25, 135), (128, 13, 3.5, 135),
    (256, 16, 2.25, 95), (256, 15, 3.5, 139), (64, 13, 1.0, 135), (128, 16, 2.25, 71),
    (128, 6, 1.0, 89), (64, 15, 5.0, 97), (128, 7, 2.0, 115), (256, 6, 2.25, 135),
)
# Plans on which the first exchange pass fits the image-reject low-pass
# (``image_lowpass_spec``) to round-off, with |delta| between 6e-20 and
# 7e-17; the second pass chases round-off extrema into an iterate with
# ripple up to 7.4e7 (p18), and no pass comes within MINIMAX_RTOL of its
# |delta|.
FIRST_PASS_LOWPASS = (2, 13, 14, 18, 25, 30, 32, 39)
# SHA-256 over the little-endian taps of every other design: the reference
# high-pass and low-pass, then each plan's high-pass and, except on the
# plans above, its low-pass. The value is that of the exchange whose taps
# are solved at the best iterate's reference set by the numpy-only
# Householder QR; the exchange loop's matrix-vector products, on numpy 2.4
# with OpenBLAS, are the only BLAS calls that can round differently.
OTHER_DESIGNS_SHA256 = "0e1227b2ede45ead64f73d0f224b428d4a4382575276c7a13c1c5143ac434c76"


def small_plan_params(plan):
    n, oversample, carrier_mhz, _ = plan
    return OfdmParams(n_subcarriers=n, oversample=oversample, carrier_hz=carrier_mhz * 1e6)


def image_lowpass_spec(params):
    """A plan's 31-tap image-reject low-pass target: pass edge BW/2, stop
    edge f_c."""
    return FirDesignSpec(
        31,
        ((0.0, params.bandwidth_hz / 2 / params.sample_hz), (params.carrier_hz / params.sample_hz, 0.5)),
        (1.0, 0.0),
        (1.0, 1.0),
    )


# 130 designs: the reference high-pass and low-pass, then each plan's
# high-pass and low-pass. The even entries are the pipeline's high-passes.
PLAN_SPECS = [default_hpf_spec(OfdmParams()), image_lowpass_spec(OfdmParams())]
for _plan in SMALL_PLANS:
    PLAN_SPECS += [default_hpf_spec(small_plan_params(_plan), _plan[3]),
                   image_lowpass_spec(small_plan_params(_plan))]
PIPELINE_HPFS = PLAN_SPECS[::2]


def _design_or_error(spec):
    try:
        return design_equiripple(spec)
    except DesignError as exc:
        return exc


@pytest.fixture(scope="module")
def plan_designs():
    return [_design_or_error(spec) for spec in PLAN_SPECS]


def test_keeping_the_best_iterate_leaves_every_other_design_unchanged(plan_designs):
    firs = [fir for fir in plan_designs if not isinstance(fir, DesignError)]
    digest = hashlib.sha256()
    for fir in firs:
        digest.update(fir.taps.astype("<f8").tobytes())
    assert len(firs) == 122
    assert digest.hexdigest() == OTHER_DESIGNS_SHA256


@pytest.mark.parametrize("index", FIRST_PASS_LOWPASS, ids=lambda i: f"p{i:02d}")
def test_exchange_refuses_an_iterate_short_of_the_minimax(index):
    with pytest.raises(DesignError, match="short of the minimax"):
        design_equiripple(image_lowpass_spec(small_plan_params(SMALL_PLANS[index])))


def test_reference_set_taps_match_the_lstsq_oracle(monkeypatch, plan_designs):
    # The QR at the reference set and the former least squares over the
    # whole grid fit the same cosine polynomial: equal taps to round-off on
    # the pipeline's high-passes, and the same designs refused, which are
    # the 8 first-pass low-passes.
    monkeypatch.setattr(fir_design, "_reference_coefficients", lstsq_coefficients)
    oracle = [_design_or_error(spec) for spec in PLAN_SPECS]
    refused = [i for i, fir in enumerate(plan_designs) if isinstance(fir, DesignError)]
    assert refused == [i for i, fir in enumerate(oracle) if isinstance(fir, DesignError)]
    assert refused == [3 + 2 * index for index in FIRST_PASS_LOWPASS]
    for spec, fir, want in zip(PLAN_SPECS, plan_designs, oracle):
        if spec in PIPELINE_HPFS:
            scale = np.max(np.abs(want.taps))
            assert np.max(np.abs(fir.taps - want.taps)) <= 1e-12 * scale


def test_designs_call_no_lapack(monkeypatch):
    # LAPACK's least squares left threaded BLAS workers spinning for about
    # 0.13 s of CPU after each design.
    def refuse(*args, **kwargs):
        raise AssertionError("the Remez design called LAPACK")

    for name in ("lstsq", "qr", "svd", "solve", "pinv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for spec in PIPELINE_HPFS:
        assert design_equiripple(spec).ripple > 0.0


def test_a_non_finite_recovery_is_refused(monkeypatch):
    # A NaN ripple fails every comparison, so it must be refused explicitly.
    def nan_coefficients(freqs, ref, levelled):
        return np.full(len(levelled) - 1, np.nan)

    monkeypatch.setattr(fir_design, "_reference_coefficients", nan_coefficients)
    with pytest.raises(DesignError, match="short of the minimax"):
        design_equiripple(DEFAULT_HPF)


@pytest.mark.parametrize("taps, stop_edge, pass_edge",
                         [(81, 0.01, 0.45), (161, 0.1, 0.3), (201, 0.1, 0.3)])
def test_a_first_pass_with_a_nan_error_is_a_design_error(taps, stop_edge, pass_edge):
    # The first pass's barycentric weights reach 1e43 to 1e70 on these band
    # plans, and at some grid points both sums cancel to 0, so its error is
    # NaN. No later pass counted as the best, and the design raised
    # UnboundLocalError.
    spec = default_hpf_spec(OfdmParams(), taps, stop_edge, pass_edge)
    with pytest.raises(DesignError):
        design_equiripple(spec)


def test_a_design_with_no_finite_pass_is_a_design_error(monkeypatch):
    def nan_weights(x):
        return np.full(x.size, np.nan)

    monkeypatch.setattr(fir_design, "_barycentric_weights", nan_weights)
    with pytest.raises(DesignError, match="no pass with a finite error"):
        design_equiripple(DEFAULT_HPF)


# Every design of this file, and the high-pass of each fold-versus-oracle
# plan: those first, in the order PLAN_SPECS lists them, then the rest.
ALL_DESIGN_SPECS = PLAN_SPECS + [
    LOWPASS,
    FirDesignSpec(21, ((0.0, 0.5),), (1.0,), (1.0,)),
    FirDesignSpec(41, ((0.0, 0.18), (0.24, 0.5)), (1.0, 0.0), (1.0, 10.0)),
    *(default_hpf_spec(OfdmParams(), *edges) for edges in
      ((81, 0.01, 0.45), (161, 0.1, 0.3), (201, 0.1, 0.3))),
    *(default_hpf_spec(params, **edges) for params, edges in ORACLE_PLANS.values()),
]


def test_taps_equal_the_dense_matrix_recovery_bit_for_bit(monkeypatch, plan_designs):
    # The QR takes the cosines of the reference rows only, and the minimax
    # check sums the series by Clenshaw's recurrence; the exchange that
    # built the dense grid-by-coefficient cosine matrix read both from it.
    # Same taps bit for bit, the same designs refused, and the ripple
    # within round-off of the dense product's.
    designs = plan_designs + [_design_or_error(spec) for spec in ALL_DESIGN_SPECS[len(PLAN_SPECS):]]
    monkeypatch.setattr(fir_design, "_reference_coefficients", dense_qr_coefficients)
    oracle = [_design_or_error(spec) for spec in ALL_DESIGN_SPECS]
    assert sum(isinstance(fir, DesignError) for fir in designs) == 8 + 3
    for fir, want in zip(designs, oracle):
        if isinstance(want, DesignError):
            assert isinstance(fir, DesignError) and str(fir) == str(want)
            continue
        assert np.array_equal(fir.taps, want.taps)
        assert fir.delta_history == want.delta_history
        assert fir.ripple == pytest.approx(dense_ripple(fir), rel=1e-9, abs=1e-15)
    for spec, fir in zip(ALL_DESIGN_SPECS, designs):
        if spec in PIPELINE_HPFS:
            assert fir.ripple == pytest.approx(dense_ripple(fir), rel=1e-9)


def test_a_design_does_not_import_numpy_ma():
    # numpy's unique and union1d import numpy.ma, 15 to 20 ms in a fresh
    # process, on their first call.
    code = (
        "import sys\n"
        "from paprsim import OfdmParams, default_hpf_spec, design_equiripple\n"
        "design_equiripple(default_hpf_spec(OfdmParams()))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_reference_selection_equals_the_loop():
    # Sign runs are merged in numpy; each run keeps its first largest
    # |error|, as the loop did. Errors drawn from few levels tie often, and
    # zeros, both signed zeros and NaN are runs the loop treats its own way.
    rng = np.random.default_rng(20)
    levels = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, np.nan])
    for size in (1, 2, 5, 40, 200):
        for _ in range(50):
            err = rng.choice(levels, size) * rng.choice([1.0, 1.0 + 1e-15], size)
            candidates = np.flatnonzero(rng.random(size) < 0.7)
            if candidates.size == 0:  # the exchange's always hold its reference set
                continue
            for target in (1, 3, 10):
                got = fir_design._select_extrema(err, candidates, target)
                assert np.array_equal(got, select_extrema_by_loop(err, candidates, target))


def _narrow_bands(taps: int, count: int) -> FirDesignSpec:
    step = 0.5 / count
    bands = tuple((i * step, (i + 0.4) * step) for i in range(count))
    return FirDesignSpec(taps, bands, tuple(i % 2 for i in range(count)), (1.0,) * count)


@pytest.mark.parametrize("taps", [3, 81, 161])
@pytest.mark.parametrize("bands", ["one", "20", "just over 6.4 per tap"])
def test_the_design_grid_holds_distinct_initial_references(taps, bands):
    # design_equiripple checks neither the grid size nor the initial
    # references, because this bound holds for every spec. _dense_grid gives
    # a band of width w max(2, round(x)) points, x = GRID_DENSITY taps w / W
    # for bands of total width W, so the x sum to GRID_DENSITY taps. Rounding
    # costs a band at most 1/2, so k bands get at least max(2 k,
    # GRID_DENSITY taps - k / 2) >= 0.8 GRID_DENSITY taps points (the two
    # meet at k = 6.4 taps, where equal bands of x just under 2.5 get 2).
    # The n_ref = (taps + 3) / 2 initial references are spread evenly over
    # the N points, (N - 1) / (n_ref - 1) >= 2 (12.8 taps - 1) / (taps + 1)
    # >= 18.7 points apart for taps >= 3, so rounding them to indices keeps
    # them at least 18 apart.
    count = {"one": 1, "20": 20, "just over 6.4 per tap": int(6.4 * taps) + 1}[bands]
    freqs = fir_design._dense_grid(_narrow_bands(taps, count), fir_design.GRID_DENSITY * taps)[0]
    n_ref = (taps + 3) // 2
    assert freqs.size >= 0.8 * fir_design.GRID_DENSITY * taps >= n_ref
    ref = np.round(np.linspace(0, freqs.size - 1, n_ref)).astype(int)
    assert np.diff(ref).min() >= 18
