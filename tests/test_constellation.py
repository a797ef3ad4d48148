import numpy as np
import pytest

from paprsim import ConfigError, ModScheme, ShapeError, constellation_points, demap_symbols, map_bits
from paprsim.constellation import SCHEME_NAMES

from oracles import brute_nearest_labels

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
     np.array([[0.0, 1.0], [0.5, 1.0]])],
    ids=["uint8-2", "int-minus-1", "float-half"],
)
def test_map_bad_values_in_a_batch(bits):
    # Integer arrays are range-checked by min/max; other dtypes by membership.
    with pytest.raises(ShapeError):
        map_bits(bits, ModScheme("psk", 4))


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


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
@pytest.mark.parametrize(
    "bad", [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0), complex(0.5, -np.inf)],
    ids=["nan_re", "nan_im", "inf_re", "inf_im"],
)
def test_demap_refuses_non_finite_symbols(scheme, bad):
    # A slicer would cast NaN to an arbitrary integer and clamp inf to an
    # edge point; neither has a nearest table point.
    symbols = np.full((2, 3), 0.1 + 0.2j)
    symbols[1, 2] = bad
    with pytest.raises(ShapeError, match="NaN or infinite"):
        demap_symbols(symbols, scheme)


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


def test_scheme_validation():
    with pytest.raises(ConfigError):
        ModScheme("psk", 64)
    with pytest.raises(ConfigError):
        ModScheme("pam", 4)
    with pytest.raises(ConfigError):
        ModScheme.from_name("64qam")
