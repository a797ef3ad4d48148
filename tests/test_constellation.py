import hashlib
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from paprsim import ConfigError, ModScheme, ShapeError, constellation_points, demap_symbols, map_bits
from paprsim.constellation import _FIXED_COS, SCHEME_NAMES, _slice_labels

from oracles import brute_nearest_labels, label_bits, map_bits_by_matmul

ALL_SCHEMES = [ModScheme.from_name(n) for n in SCHEME_NAMES]


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
def test_table_invariants(scheme):
    table = constellation_points(scheme)
    assert table.points.size == scheme.order
    assert table.labels.shape == (scheme.order, scheme.bits_per_symbol)
    assert abs(np.mean(np.abs(table.points) ** 2) - 1.0) < 1e-12
    assert len(set(np.round(table.points, 12))) == scheme.order
    label_ints = {tuple(row) for row in table.labels}
    assert len(label_ints) == scheme.order


# SHA-256 of the bytes of each table's points, labels and point_for_label,
# taken from the tables as built before they were built from label integers.
TABLE_SHA256 = {
    "qpsk": ("56f2c6be174910bee57cbfdd065e7b8e57c2c4fbaa8d1701a968e66ff9c7ef2a",
             "eddbfad5043d7f782086e4976c28f8d5a98199e02f2c893e891c4ad4da8e8573",
             "66a2a69f17e7e33124f0bd80e88ca77c28edb4d8c8dfba38e4659b5168a4948c"),
    "qam": ("396fa67b42551008ee291dff4a9d5b2e5ec5a845576e65fb6feac5500271efb1",
            "0fe12ed7a2eb6806814ba347f882ee9e6ed89336d8033001e52ad0d8d629bdd3",
            "396fa67b42551008ee291dff4a9d5b2e5ec5a845576e65fb6feac5500271efb1"),
    "8psk": ("db8a0264f211a5ee57051b1f9d71b01be4709d0c6fe50c15657372cab175a68b",
             "2f102b03d43064621e13d5521600c3ecd344a0d55a38e44f4e99f23d09a490ac",
             "ff75e254e9fd056115ed1b1e7ace315b785e66cce252b472ea8b93feb7a3ed7e"),
    "8qam": ("fb0e9b34c7f56db4410153ecee997ba2b02d99dffc31352045713f4356eaf89d",
             "33a36cce3c8aed816b7d87f97e9396b1b0c55ba9a69e4b7d44f3c4c6a090d9f4",
             "ab4369be04db1863b4b5b5af303b42fa861eee01eafd1629f6f996e1e2b392e9"),
    "16psk": ("623297f0851d5e6db593d1653e50c7eb2cf236fd3af941765c81a3dca121ee51",
              "4fe70cfd08c76576f5dbaf4301020577de72e19959ccca5e087d72bff28f4cd6",
              "9b59e0b764e652f0ffa0013d35a1c6af689e916fb59bacb0e205267b3f0d2781"),
    "16qam": ("fadc5967faf0cb3c51e73103d8a453da1358cbf554a72c7a2d2cbdfc3be31a8b",
              "f513a6aafdef0967635fd607d3a486d2c9bc7d92cb9874dd409a0ced8079c860",
              "699fba4b7ac8e9cbd1ab323653e03e52682d97dfeb6d69d1a88a1c5731d29978"),
    "32psk": ("c89c78e89b45bbcaf915aebabd2dfa3bf144b2d3cd13a24fe9c2160ff513f7ff",
              "84a054a3486ad675f0f872178a4d5736eeb93bed5d70206fee5ce2b1ad0ae7f1",
              "f27ed152ecd620104f6331692ddf36034a8bfde593f96b04984df6c9a87e701b"),
    "32qam": ("146dbdf0b502164e11bfe22c02814555f1e12d0741d3c00c433a98139356a511",
              "84a054a3486ad675f0f872178a4d5736eeb93bed5d70206fee5ce2b1ad0ae7f1",
              "dba0fc2a1d059eba5bb47e68362815b87fa553f98b4e2870b61ca37ef631d559"),
}


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
def test_table_bytes_are_pinned(scheme):
    table = constellation_points(scheme)
    assert table.points.dtype == complex and table.point_for_label.dtype == complex
    assert table.labels.dtype == np.uint8
    got = tuple(hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()
                for array in (table.points, table.labels, table.point_for_label))
    assert got == TABLE_SHA256[scheme.name]


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
def test_table_deterministic(scheme):
    a = constellation_points(scheme)
    b = constellation_points(scheme)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)


def test_qpsk_points_on_diagonals():
    table = constellation_points(ModScheme("psk", 4))
    angles = sorted(np.degrees(np.angle(table.points)) % 360)
    assert np.allclose(angles, [45.0, 135.0, 225.0, 315.0], atol=1e-9)


def test_psk_constant_modulus():
    for order in (4, 8, 16, 32):
        points = constellation_points(ModScheme("psk", order)).points
        assert np.max(np.abs(np.abs(points) - 1.0)) < 1e-12


def test_psk_gray_adjacency():
    # Neighbors on the circle differ in exactly one label bit, wrap included.
    for order in (4, 8, 16, 32):
        table = constellation_points(ModScheme("psk", order))
        idx = np.argsort(np.angle(table.points) % (2 * np.pi))
        for i in range(order):
            a = table.labels[idx[i]]
            b = table.labels[idx[(i + 1) % order]]
            assert np.count_nonzero(a != b) == 1


def test_16qam_grid():
    table = constellation_points(ModScheme("qam", 16))
    scaled = table.points * np.sqrt(10.0)
    expected = {complex(i, q) for i in (-3, -1, 1, 3) for q in (-3, -1, 1, 3)}
    assert {complex(round(p.real), round(p.imag)) for p in scaled} == expected
    assert np.max(np.abs(scaled - np.round(scaled.real) - 1j * np.round(scaled.imag))) < 1e-9


def test_32qam_cross_normalization():
    # Independent check: enumerate the 6x6-minus-corners grid and normalize.
    grid = [
        complex(i, q)
        for i in (-5, -3, -1, 1, 3, 5)
        for q in (-5, -3, -1, 1, 3, 5)
        if not (abs(i) == 5 and abs(q) == 5)
    ]
    energy = np.mean(np.abs(np.array(grid)) ** 2)
    assert energy == pytest.approx(20.0)
    table = constellation_points(ModScheme("qam", 32))
    assert abs(np.mean(np.abs(table.points) ** 2) - 1.0) < 1e-12
    scaled = sorted(np.round(table.points * np.sqrt(energy), 9), key=lambda p: (p.real, p.imag))
    assert np.allclose(scaled, sorted(grid, key=lambda p: (p.real, p.imag)))


def test_8qam_rectangle():
    table = constellation_points(ModScheme("qam", 8))
    scaled = table.points * np.sqrt(6.0)
    expected = {complex(i, q) for i in (-3, -1, 1, 3) for q in (-1, 1)}
    assert {complex(round(p.real), round(p.imag)) for p in scaled} == expected


def test_map_empty():
    scheme = ModScheme("psk", 4)
    assert map_bits(np.array([], dtype=np.uint8), scheme).size == 0


def test_map_label_lookup():
    table = constellation_points(ModScheme("psk", 4))
    want = table.points[[tuple(row) for row in table.labels].index((0, 0))]
    got = map_bits(np.array([0, 0]), ModScheme("psk", 4))
    assert got[0] == want


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
def test_map_membership(scheme):
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, 128 * scheme.bits_per_symbol)
    symbols = map_bits(bits, scheme)
    assert symbols.size == 128
    table_points = set(np.round(constellation_points(scheme).points, 12))
    assert all(np.round(s, 12) in table_points for s in symbols)


def test_map_bad_length():
    with pytest.raises(ShapeError):
        map_bits(np.array([0, 1, 0]), ModScheme("qam", 16))


def test_map_bad_values():
    with pytest.raises(ShapeError):
        map_bits(np.array([0, 2]), ModScheme("psk", 4))


@pytest.mark.parametrize(
    "bits",
    [np.array([[0, 1], [1, 2]], dtype=np.uint8), np.array([[0, 1], [-1, 0]]),
     np.array([[0.0, 1.0], [0.5, 1.0]]), np.array([[0.0, 1.0], [np.nan, 1.0]])],
    ids=["uint8-2", "int-minus-1", "float-half", "float-nan"],
)
def test_map_bad_values_in_a_batch(bits):
    # Unsigned arrays are checked by their maximum, other dtypes by
    # membership; bool bits need no check.
    with pytest.raises(ShapeError):
        map_bits(bits, ModScheme("psk", 4))


@pytest.mark.parametrize("dtype", [bool, np.uint8, int, float], ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
def test_map_equals_the_matmul_form_bit_for_bit(scheme, dtype):
    # Labels packed by shifts on intp, against the int64 matrix product
    # they replaced; every label of the table occurs.
    rng = np.random.default_rng(scheme.order + 3)
    bits = rng.integers(0, 2, (3, 64, 32 * scheme.bits_per_symbol)).astype(dtype)
    got = map_bits(bits, scheme)
    assert got.shape == (3, 64, 32)
    assert np.array_equal(got, map_bits_by_matmul(bits, scheme))
    assert np.unique(got).size == scheme.order


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
def test_map_and_demap_an_empty_batch(scheme):
    n, k = 128, scheme.bits_per_symbol
    symbols = map_bits(np.zeros((0, n * k), dtype=np.uint8), scheme)
    assert symbols.shape == (0, n) and symbols.dtype == complex
    bits = demap_symbols(np.zeros((0, n), dtype=complex), scheme)
    assert bits.shape == (0, n * k) and bits.dtype == np.uint8


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
def test_round_trip(scheme):
    rng = np.random.default_rng(scheme.order)
    bits = rng.integers(0, 2, 600 * scheme.bits_per_symbol, dtype=np.uint8)
    assert np.array_equal(demap_symbols(map_bits(bits, scheme), scheme), bits)


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
def test_demap_within_half_min_distance(scheme):
    table = constellation_points(scheme)
    pts = table.points
    dmin = min(
        abs(pts[i] - pts[j]) for i in range(len(pts)) for j in range(i + 1, len(pts))
    )
    rng = np.random.default_rng(3)
    idx = rng.integers(0, scheme.order, 200)
    phase = rng.uniform(0, 2 * np.pi, 200)
    perturbed = pts[idx] + 0.45 * dmin * np.exp(1j * phase)
    got = demap_symbols(perturbed, scheme).reshape(200, -1)
    assert np.array_equal(got, table.labels[idx])


def test_demap_matches_brute_force_oracle():
    scheme = ModScheme("qam", 16)
    table = constellation_points(scheme)
    rng = np.random.default_rng(11)
    tx = table.points[rng.integers(0, 16, 10_000)]
    noisy = tx + (rng.normal(0, 0.4, 10_000) + 1j * rng.normal(0, 0.4, 10_000))
    fast = demap_symbols(noisy, scheme)
    brute = brute_nearest_labels(noisy, list(table.points), [tuple(r) for r in table.labels])
    assert np.array_equal(fast, brute)


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
def test_slicer_matches_exhaustive_search_on_a_million_symbols(scheme):
    # Noise from far below to far above the decision distance, so symbols
    # land in every decision region, on every side of the clamp.
    table = constellation_points(scheme)
    rng = np.random.default_rng(12)
    n = 1_000_000
    sigma = np.array([0.05, 0.2, 0.6, 2.0])[rng.integers(0, 4, n)]
    noisy = table.points[rng.integers(0, scheme.order, n)] + sigma * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n))
    assert np.array_equal(demap_symbols(noisy, scheme),
                          brute_nearest_labels(noisy, table.points, table.labels))


def exact_tie_cases(scheme):
    """Symbols on exact decision ties and the table index the rule picks.

    Distances are compared exactly, in integers: PSK on the rays a float
    can lie on exactly (the axes and diagonals, radius 0.5, 1 and 2),
    measured as angles in units of 2 pi / (8 M); QAM on the integer
    lattice in units of half the level spacing, where the levels are odd
    and every midpoint is even, so that every midpoint, the 32-cross's
    corner diagonals and the origin are covered. Signed zeros too."""
    table = constellation_points(scheme)
    m = scheme.order
    symbols, want = [], []
    if scheme.family == "psk":
        point_angles = 8 * np.arange(m) + 4  # point k at (k + 1/2) 2 pi / M
        for ray in range(8):  # ray q at angle q pi / 4 = q M units
            gap = np.abs(ray * m - point_angles) % (8 * m)
            distance = np.minimum(gap, 8 * m - gap)
            for radius in (0.5, 1.0, 2.0):
                re = radius * (ray in (0, 1, 7)) - radius * (ray in (3, 4, 5))
                im = radius * (ray in (1, 2, 3)) - radius * (ray in (5, 6, 7))
                symbols.append(complex(re, im))
                want.append(int(np.argmin(distance)))
        symbols += [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0),
                    complex(-0.0, -0.0)]
        want += [0, 0, 0, 0]
    else:
        unit = float(np.min(np.abs(table.points.real)))
        lattice = np.round(np.stack([table.points.real, table.points.imag]) / unit)
        for x in range(-9, 10):
            for y in range(-9, 10):
                distance = (lattice[0] - x) ** 2 + (lattice[1] - y) ** 2
                symbols.append(complex(x * unit, y * unit))
                want.append(int(np.argmin(distance)))
        symbols += [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
        want += [want[len(want) // 2]] * 3  # the origin, (x, y) = (0, 0)
    return np.array(symbols), np.array(want)


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
def test_slicer_exact_ties_go_to_the_lowest_table_index(scheme):
    symbols, want = exact_tie_cases(scheme)
    table = constellation_points(scheme)
    got = demap_symbols(symbols, scheme).reshape(symbols.size, -1)
    assert np.array_equal(got, table.labels[want])


def test_exact_tie_cases_cover_the_ties():
    # Every kind of tie is among the cases: the origin (all M PSK points, the
    # four inner QAM points), PSK boundaries, QAM midpoints, the 32-cross
    # corner diagonals (two points, or three at (4, 4)).
    def ties(scheme):
        symbols, _ = exact_tie_cases(scheme)
        points = constellation_points(scheme).points
        if scheme.family == "qam":
            unit = float(np.min(np.abs(points.real)))
            points, symbols = np.round(points / unit), np.round(symbols / unit)
        distance = np.abs(symbols[:, None] - points[None, :])
        return np.sum(np.isclose(distance, distance.min(axis=1, keepdims=True),
                                 rtol=1e-12, atol=1e-12), axis=1)

    assert {1, 2, 4}.issubset(set(ties(ModScheme("qam", 16))))
    assert {1, 2, 3, 4}.issubset(set(ties(ModScheme("qam", 32))))
    for order in (4, 8, 16, 32):
        assert {2, order}.issubset(set(ties(ModScheme("psk", order))))


def test_demap_tie_breaks_to_lowest_index():
    # A real-axis symbol is equidistant (bit-exactly) from the two QPSK
    # points that share its real part; the lower table index must win.
    scheme = ModScheme("psk", 4)
    table = constellation_points(scheme)
    got = demap_symbols(np.array([1.0 + 0.0j]), scheme)
    tied = [i for i, p in enumerate(table.points) if p.real > 0]
    assert np.array_equal(got, table.labels[min(tied)])


@pytest.mark.parametrize("scheme", [ModScheme("psk", 4), ModScheme("qam", 4)], ids=lambda s: s.name)
def test_four_point_slicers_are_exact_on_and_near_the_axes(scheme):
    # The points sit at (+-a, +-a), so a symbol's nearest points are those
    # whose signs agree with its nonzero parts: a part of the other sign,
    # however small, is strictly farther, and a zero part of either sign
    # ties. The lowest index of them wins. Signed zeros on all four
    # half-axes and at the origin, subnormal, tiny and huge parts.
    table = constellation_points(scheme)
    magnitudes = (0.0, np.nextafter(0.0, 1.0), 1e-300, 1e-17, 1.0, 1e300)
    symbols, want = [], []
    for x in magnitudes:
        for y in magnitudes:
            for sx in (1.0, -1.0):
                for sy in (1.0, -1.0):
                    re, im = sx * x, sy * y
                    symbols.append(complex(re, im))
                    want.append(min(k for k, p in enumerate(table.points)
                                    if (re == 0 or (re > 0) == (p.real > 0))
                                    and (im == 0 or (im > 0) == (p.imag > 0))))
    symbols = np.array(symbols)
    assert np.signbit(symbols.real).sum() == np.signbit(symbols.imag).sum() == symbols.size // 2
    got = demap_symbols(symbols, scheme).reshape(symbols.size, -1)
    assert np.array_equal(got, table.labels[want])


def test_qpsk_decides_a_symbol_near_an_axis_by_its_quadrant():
    # arctan2 rounds these angles onto an axis, where the tie rule would
    # pick the other point of the tie.
    qpsk = ModScheme("psk", 4)
    assert demap_symbols([-1 - 1e-17j], qpsk).tolist() == [1, 1]
    assert demap_symbols([-1e-17 + 1j], qpsk).tolist() == [0, 1]


#: The directions of the axes and diagonals, ray q at angle q pi / 4.
RAYS = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]


def near_ray_cases(order):
    """Symbols one ulp or 1e-17 off the axes and diagonals, and the table
    index of the nearest point, decided in exact rationals.

    Ray q, at angle q pi / 4, is the boundary b = q M / 8 between points
    b - 1 and b (mod M). A symbol this near it is nearest one of those two:
    point b when it lies counterclockwise of the ray, point b - 1 when
    clockwise, and the lower index of the two when on it."""
    symbols, want = [], []
    for q, (dx, dy) in enumerate(RAYS):
        b = q * order // 8
        for radius in (0.5, 1.0, 3.0):
            for axis in (0, 1):
                for move in ("up", "down", "plus", "minus"):
                    part = [radius * dx, radius * dy]
                    if move in ("up", "down"):
                        toward = math.inf if move == "up" else -math.inf
                        part[axis] = float(np.nextafter(part[axis], toward))
                    else:
                        part[axis] += 1e-17 if move == "plus" else -1e-17
                    side = Fraction(dx) * Fraction(part[1]) - Fraction(dy) * Fraction(part[0])
                    below, above = (b - 1) % order, b % order
                    symbols.append(complex(*part))
                    want.append(above if side > 0 else below if side < 0 else min(below, above))
    return np.array(symbols), np.array(want)


@pytest.mark.parametrize("order", [8, 16, 32])
def test_psk_slicer_decides_symbols_next_to_the_axes_and_diagonals_exactly(order):
    # arctan2 rounds many of these angles onto the ray, where the tie rule
    # alone would pick the lower index whichever side the symbol is on.
    scheme = ModScheme("psk", order)
    symbols, want = near_ray_cases(order)
    got = demap_symbols(symbols, scheme).reshape(symbols.size, -1)
    assert np.array_equal(got, constellation_points(scheme).labels[want])


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
@pytest.mark.parametrize(
    "bad",[complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0), complex(0.5, -np.inf),
            complex(-np.inf, 0.5), complex(np.inf, -np.inf)],
    ids=["nan_re", "nan_im", "inf_re", "inf_im", "minus_inf_re", "inf_minus_inf"],
)
def test_demap_refuses_non_finite_symbols(scheme, bad):
    # A slicer would cast NaN to an arbitrary integer and clamp inf to an
    # edge point; neither has a nearest table point. The check sums the
    # parts, so the bad symbol is tried in every position.
    for position in np.ndindex(2, 3):
        symbols = np.full((2, 3), 0.1 + 0.2j)
        symbols[position] = bad
        with pytest.raises(ShapeError, match="NaN or infinite"):
            demap_symbols(symbols, scheme)


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
def test_demap_decides_huge_symbols_whose_parts_sum_past_the_float_range(scheme):
    # 1.7e308 + 1.6e308j lies in a corner cell of the 32-cross, off its
    # diagonal, though both parts divided by the level spacing overflow.
    huge = np.array([1e308 + 1e308j, 1.7e308 + 0.3e308j, -1e308 + 1.7e308j, 0.5e308 - 1.7e308j,
                     -1.7e308 - 1.7e308j, 1.7e308 + 1.6e308j, -1.6e308 - 1.7e308j])
    with np.errstate(over="ignore"):
        assert np.isinf(huge.view(float).sum())
    # Scaling by a power of two is exact and keeps every decision.
    assert np.array_equal(demap_symbols(huge, scheme), demap_symbols(huge * 2.0**-1000, scheme))


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
def test_empirical_unit_energy(scheme):
    rng = np.random.default_rng(19)
    bits = rng.integers(0, 2, 100_000 * scheme.bits_per_symbol, dtype=np.uint8)
    symbols = map_bits(bits, scheme)
    assert 0.99 <= np.mean(np.abs(symbols) ** 2) <= 1.01


def test_scheme_names_round_trip():
    for name in SCHEME_NAMES:
        assert ModScheme.from_name(name).name == name
    assert ModScheme.from_name("qpsk") == ModScheme("psk", 4)
    assert ModScheme.from_name("qam") == ModScheme("qam", 4)
    assert ModScheme.from_name(" QPSK ") == ModScheme("psk", 4)
    assert ModScheme.from_name("16QAM") == ModScheme("qam", 16)
    assert ModScheme.from_name("\t32Psk\n") == ModScheme("psk", 32)


def test_scheme_validation():
    with pytest.raises(ConfigError):
        ModScheme("psk", 64)
    with pytest.raises(ConfigError):
        ModScheme("pam", 4)
    # Only the names of SCHEME_NAMES: order 4 is spelled "qpsk" and "qam".
    for name in ("64qam", "4psk", "4qam", "08psk", "16 psk"):
        with pytest.raises(ConfigError, match="unknown modulation scheme"):
            ModScheme.from_name(name)



def ulps_from(value: float, steps: int) -> float:
    """The float ``steps`` ulps above ``value`` (below it if negative)."""
    for _ in range(abs(steps)):
        value = float(np.nextafter(value, math.copysign(math.inf, steps)))
    return value


def boundary_ulp_cases(order):
    """Every symbol 0 to 4 ulps, each part moved either way, from every
    boundary of M-PSK at radii 0.5, 1 and 3, and the table index of its
    nearest point by a 40-digit reference.

    Boundary b is the ray at theta = 2 pi b / M between points b - 1 and b;
    the symbols lie so near it that one of those two is nearest: b when
    the side y cos theta - x sin theta is positive, b - 1 when negative,
    the lower index when zero. ``mpmath.cospi`` and ``sinpi`` are exact on
    the axes and equal on the diagonals, so a float on those rays has a
    side of exactly zero. Each walk starts at the ray's point rounded to
    floats."""
    symbols, want = [], []
    with mpmath.workdps(40):
        for b in range(order):
            turn = mpmath.mpf(2 * b) / order
            c, s = mpmath.cospi(turn), mpmath.sinpi(turn)
            for radius in (0.5, 1.0, 3.0):
                for dx in range(-4, 5):
                    for dy in range(-4, 5):
                        x, y = ulps_from(float(radius * c), dx), ulps_from(float(radius * s), dy)
                        side = mpmath.mpf(y) * c - mpmath.mpf(x) * s
                        symbols.append(complex(x, y))
                        want.append(b if side > 0 else b - 1 if side < 0 else min(b, (b - 1) % order))
    return np.array(symbols), np.array(want) % order


@pytest.mark.parametrize("order", [8, 16, 32])
def test_psk_slicer_decides_symbols_within_four_ulps_of_every_boundary_exactly(order):
    # arctan2 rounds the angle of many of these symbols across or onto a
    # boundary that is neither an axis nor a diagonal; the symbols whose
    # angle lies near a whole number of sectors are decided by their exact
    # side of the boundary.
    scheme = ModScheme("psk", order)
    symbols, want = boundary_ulp_cases(order)
    assert symbols.size == order * 3 * 81
    got = demap_symbols(symbols, scheme).reshape(symbols.size, -1)
    wrong = np.flatnonzero(np.any(got != constellation_points(scheme).labels[want], axis=1))
    assert wrong.size == 0, symbols[wrong[:10]]


def test_the_boundary_constants_are_the_cosines_and_sines_times_2_to_the_256():
    # cos and sin of j pi / 16, j = 0..31, as integers within 2 units of
    # their 90-digit values times 2^256; exactly 0 and +-2^256 on the axes,
    # and one magnitude for both on the diagonals, so that a float symbol
    # on those rays has a side of exactly zero.
    one = 2**256
    assert len(_FIXED_COS) == 32
    with mpmath.workdps(90):
        for j in range(32):
            cos, sin = _FIXED_COS[j], _FIXED_COS[j - 8]
            assert abs(cos - mpmath.cospi(mpmath.mpf(j) / 16) * one) <= 2, j
            assert abs(sin - mpmath.sinpi(mpmath.mpf(j) / 16) * one) <= 2, j
            if j % 8 == 0:
                assert sorted((abs(cos), abs(sin))) == [0, one], j
            if j % 8 == 4:
                assert abs(cos) == abs(sin), j


def nearest_float_cases(order):
    """Float symbols closer to a boundary of M-PSK that is neither an axis
    nor a diagonal than any other float of their size, and the table index
    of their nearest point by a 60-digit reference.

    With the ray at theta, the convergents p/q of |tan theta|'s continued
    fraction with q < 2^53 are its best rational approximations, so
    (q, p - 1), (q, p) and (q, p + 1), signed into theta's quadrant, lie
    within about 2^-106 of the radius of the ray; they are taken at
    scales 2^-600, 1 and 2^600. Only symbols within 10^-6 of the radius
    are kept, where the ray's two points are the nearest. Each lies more
    than 2^-250 of its radius from the ray, the margin by which the exact
    side's constants, within 2^-256 of cos theta and sin theta, keep its
    sign."""
    symbols, want = [], []
    with mpmath.workdps(60):
        for b in range(order):
            if 8 * b % order == 0:
                continue
            theta = 2 * mpmath.pi * b / order
            c, s = mpmath.cos(theta), mpmath.sin(theta)
            rest, (h, h_prev), (k, k_prev) = abs(s / c), (1, 0), (0, 1)
            while True:
                whole = int(mpmath.floor(rest))
                h, h_prev, k, k_prev = whole * h + h_prev, h, whole * k + k_prev, k
                if k >= 2**53:
                    break
                for p in (h - 1, h, h + 1):
                    for scale in (2.0**-600, 1.0, 2.0**600):
                        x, y = math.copysign(k * scale, c), math.copysign(p * scale, s)
                        side = mpmath.mpf(y) * c - mpmath.mpf(x) * s
                        if p < 2**53 and abs(side) < 1e-6 * mpmath.hypot(x, y):
                            assert abs(side) > mpmath.mpf(2) ** -250 * mpmath.hypot(x, y)
                            symbols.append(complex(x, y))
                            want.append(b if side > 0 else (b - 1) % order)
                rest = 1 / (rest - whole)
    return np.array(symbols), np.array(want)


@pytest.mark.parametrize("order", [16, 32])
def test_psk_slicer_decides_the_floats_nearest_each_boundary_exactly(order):
    scheme = ModScheme("psk", order)
    symbols, want = nearest_float_cases(order)
    assert symbols.size > 100 * order
    got = demap_symbols(symbols, scheme).reshape(symbols.size, -1)
    wrong = np.flatnonzero(np.any(got != constellation_points(scheme).labels[want], axis=1))
    assert wrong.size == 0, symbols[wrong[:10]]


def extreme_magnitude_cases(order):
    """Symbols at every boundary of M-PSK at radii 2^-1070, 1e-310, 1e-300,
    1e300 and 1.7e308, each part moved by -2, 0 or +2 ulps, and subnormal
    parts beside huge ones next to the axes, with the table index of each
    one's nearest point.

    The nearest point is b - 1 or b, with b the boundary nearest the
    symbol's angle, found from the float angle: point b when the side
    y cos theta_b - x sin theta_b is positive, b - 1 when negative, the
    lower index when zero. On the axes and diagonals the side has the sign
    of dx y - dy x, (dx, dy) the ray's direction, decided exactly in
    rationals, so a symbol on the ray ties whatever the working precision.
    Elsewhere the side is taken by ``mpmath`` at 700 digits, more than the
    2^-2098 from 5e-324 to 1.7e308 spans."""
    symbols = [complex(1e300, 5e-324), complex(1e300, -5e-324), complex(1.7e308, -5e-324)]
    symbols += [complex(sx * 5e-324, sy * 1.7e308) for sx in (1, -1) for sy in (1, -1)]
    with mpmath.workdps(40):
        for b in range(order):
            turn = mpmath.mpf(2 * b) / order
            cos, sin = float(mpmath.cospi(turn)), float(mpmath.sinpi(turn))
            for radius in (2.0**-1070, 1e-310, 1e-300, 1e300, 1.7e308):
                for dx in (-2, 0, 2):
                    for dy in (-2, 0, 2):
                        symbols.append(complex(ulps_from(radius * cos, dx),
                                               ulps_from(radius * sin, dy)))
    want = []
    with mpmath.workdps(700):
        for z in symbols:
            x, y = z.real, z.imag
            b = round(math.atan2(y, x) * order / (2 * math.pi)) % order
            if 8 * b % order == 0:
                dx, dy = RAYS[8 * b // order]
                side = dx * Fraction(y) - dy * Fraction(x)
            else:
                turn = mpmath.mpf(2 * b) / order
                side = mpmath.mpf(y) * mpmath.cospi(turn) - mpmath.mpf(x) * mpmath.sinpi(turn)
            below = (b - 1) % order
            want.append(b if side > 0 else below if side < 0 else min(b, below))
    return np.array(symbols), np.array(want)


@pytest.mark.parametrize("order", [8, 16, 32])
def test_psk_slicer_decides_symbols_at_extreme_magnitudes_exactly(order):
    # Subnormal and huge parts, where products of the parts with a cosine
    # leave the float range; the exact side takes them as integers.
    scheme = ModScheme("psk", order)
    symbols, want = extreme_magnitude_cases(order)
    assert symbols.size == 7 + order * 5 * 9 and np.isfinite(symbols).all()
    got = demap_symbols(symbols, scheme).reshape(symbols.size, -1)
    wrong = np.flatnonzero(np.any(got != constellation_points(scheme).labels[want], axis=1))
    assert wrong.size == 0, symbols[wrong[:10]]


def tie_sets(scheme):
    """Every tie and near-tie symbol set of this file for ``scheme``: the
    exact ties (origin, signed zeros, PSK boundaries, QAM midpoints, the
    cross's corner diagonals), the four-point signed-zero and magnitude
    grid, PSK symbols one ulp and 1e-17 off the axes and diagonals, 0 to
    4 ulps from every boundary and at extreme magnitudes, and huge finite
    symbols."""
    magnitudes = (0.0, 5e-324, 1e-300, 1e-17, 1.0, 1e300)
    sets = [exact_tie_cases(scheme)[0],
            np.array([complex(sx * x, sy * y) for x in magnitudes for y in magnitudes
                      for sx in (1.0, -1.0) for sy in (1.0, -1.0)]),
            np.array([1e308 + 1e308j, 1.7e308 + 0.3e308j, -1e308 + 1.7e308j, 0.5e308 - 1.7e308j,
                      -1.7e308 - 1.7e308j, 1.7e308 + 1.6e308j, -1.6e308 - 1.7e308j])]
    if scheme.family == "psk" and scheme.order > 4:
        sets += [near_ray_cases(scheme.order)[0], boundary_ulp_cases(scheme.order)[0],
                 extreme_magnitude_cases(scheme.order)[0]]
    return np.concatenate(sets)


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
def test_the_point_slicer_labels_expand_to_the_bits_of_demap_symbols(scheme):
    # A BER point slices (rows, N) chunks into a thread's buffer, longer
    # than the chunk and holding the previous chunk's values; its label
    # integers must expand to exactly demap_symbols' bits, on noisy chunks
    # and on every tie set.
    table = constellation_points(scheme)
    rng = np.random.default_rng(scheme.order)
    noisy = table.points[rng.integers(0, scheme.order, (37, 128))] + np.array(
        [0.05, 0.3, 1.0, 3.0])[rng.integers(0, 4, (37, 128))] * (
        rng.standard_normal((37, 128)) + 1j * rng.standard_normal((37, 128)))
    ties = tie_sets(scheme)[None, :]
    work = rng.standard_normal(2 * max(noisy.size, ties.size) + 100)
    for symbols in (noisy, noisy[:5], ties, np.zeros((0, 128), complex)):
        labels = _slice_labels(symbols, scheme, work)
        assert labels.dtype == np.uint8 and labels.shape == symbols.shape
        assert np.array_equal(label_bits(labels, scheme), demap_symbols(symbols, scheme))
