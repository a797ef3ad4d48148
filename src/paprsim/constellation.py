"""Bit-to-symbol mapping and hard-decision demapping for PSK and QAM.

Supported schemes are QPSK, 8/16/32-PSK and 4/8/16/32-QAM, all scaled to
unit average symbol energy. PSK rings are Gray labeled around the circle.
Square QAM (orders 4 and 16) is Gray labeled per axis, 8-QAM is a 4x2
rectangle (four I levels, two Q levels) with per-axis Gray labels, and
32-QAM is the 6x6 cross (corners removed) with labels assigned in canonical
point order. QPSK and 4-QAM share the same point set but stay distinct
schemes so experiment tables keep separate rows for them. Each table is
built from its points and their label integers, a label's bits read as a
big-endian integer; the bits are expanded from those once per table.

Rectangular 8-QAM is the one improper table: its pseudo-variance E[X^2] is
2/3, where every other table has E[X^2] = 0. Distortion that depends on the
transmitted symbols, such as clipping, inherits that impropriety.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ShapeError
from .ofdm_chain import _out_array

SUPPORTED_ORDERS = (4, 8, 16, 32)

#: Scheme names accepted in config files, in canonical table order.
SCHEME_NAMES = ("qpsk", "qam", "8psk", "8qam", "16psk", "16qam", "32psk", "32qam")


@dataclass(frozen=True)
class ModScheme:
    """Modulation family ("psk" or "qam") plus constellation order M."""

    family: str
    order: int

    def __post_init__(self):
        if self.family not in ("psk", "qam"):
            raise ConfigError(f"unknown modulation family {self.family!r}")
        if self.order not in SUPPORTED_ORDERS:
            raise ConfigError(
                f"unsupported constellation order {self.order}; "
                f"supported orders are {SUPPORTED_ORDERS}"
            )

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1

    @property
    def name(self) -> str:
        """Config-file name of the scheme (see SCHEME_NAMES)."""
        if self.order == 4:
            return "qpsk" if self.family == "psk" else "qam"
        return f"{self.order}{self.family}"

    @classmethod
    def from_name(cls, name: str) -> "ModScheme":
        key = name.strip().lower()
        if key not in SCHEME_NAMES:
            raise ConfigError(
                f"unknown modulation scheme {name!r}; valid names: {', '.join(SCHEME_NAMES)}"
            )
        return cls(key[-3:], 4 if key in ("qpsk", "qam") else int(key[:-3]))


@dataclass(frozen=True)
class ConstellationTable:
    """Fixed symbol table: M complex points and their M bit labels.

    ``labels`` has shape (M, log2(M)) with 0/1 entries; row i labels
    ``points[i]``. ``point_for_label`` maps a label read as a big-endian
    integer to its point, which makes bit-group lookup a single indexing op.
    """

    points: np.ndarray
    labels: np.ndarray
    point_for_label: np.ndarray

    @property
    def order(self) -> int:
        return self.points.size

    @property
    def bits_per_symbol(self) -> int:
        return self.labels.shape[1]


def _gray(n):
    return n ^ (n >> 1)


def _psk_table(order: int) -> tuple[np.ndarray, np.ndarray]:
    """PSK points and their label integers: point k is Gray labeled gray(k)."""
    # Points at angles 2*pi*(k + 1/2)/M so QPSK lands on the diagonals.
    k = np.arange(order)
    return np.exp(2j * np.pi * (k + 0.5) / order), _gray(k)


def _qam_table(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-energy QAM points, I level major, and their label integers. A
    rectangle's point (i, q) is labeled gray(i) n_q + gray(q): per-axis Gray
    labels, I bits first. The 32-cross, the 6x6 grid less its corners,
    labels its n-th point gray(n)."""
    n_i, n_q = {4: (2, 2), 8: (4, 2), 16: (4, 4), 32: (6, 6)}[order]
    i, q = np.meshgrid(2.0 * np.arange(n_i) - (n_i - 1), 2.0 * np.arange(n_q) - (n_q - 1),
                       indexing="ij")
    if order == 32:
        keep = (np.abs(i) < 5) | (np.abs(q) < 5)
        i, q, labels = i[keep], q[keep], _gray(np.arange(order))
    else:
        gray_i, gray_q = np.meshgrid(_gray(np.arange(n_i)), _gray(np.arange(n_q)), indexing="ij")
        labels = (gray_i * n_q + gray_q).ravel()
    points = (i + 1j * q).ravel()
    return points / np.sqrt(np.mean(np.abs(points) ** 2)), labels


@lru_cache(maxsize=None)
def _table_cached(family: str, order: int) -> ConstellationTable:
    points, label_ints = (_psk_table if family == "psk" else _qam_table)(order)
    width = order.bit_length() - 1
    labels = (label_ints[:, None] >> np.arange(width - 1, -1, -1) & 1).astype(np.uint8)
    point_for_label = np.empty(order, dtype=complex)
    point_for_label[label_ints] = points
    for arr in (points, labels, point_for_label):
        arr.setflags(write=False)
    return ConstellationTable(points=points, labels=labels, point_for_label=point_for_label)


def constellation_points(scheme: ModScheme) -> ConstellationTable:
    """Return the fixed unit-energy table for the scheme."""
    return _table_cached(scheme.family, scheme.order)


def map_bits(bits, scheme: ModScheme, *, out=None) -> np.ndarray:
    """Map 0/1 bits (..., n*k) to complex symbols (..., n), k = log2(M).

    ``out``, a complex (..., n) array, receives the symbols in place of a
    new array.
    """
    bits = np.asarray(bits)
    k = scheme.bits_per_symbol
    if bits.shape[-1] % k:
        raise ShapeError(
            f"bit count {bits.shape[-1]} is not divisible by log2(M) = {k} for {scheme.name}"
        )
    kind = bits.dtype.kind
    if kind == "u":  # one pass: no unsigned bit is below 0
        valid = bits.size == 0 or bits.max() <= 1
    else:  # bool bits are 0 or 1 by type
        valid = kind == "b" or ((bits == 0) | (bits == 1)).all()
    if not valid:
        raise ShapeError("bits must contain only 0 and 1")
    if kind not in "biu":
        bits = bits.astype(np.intp)
    groups = bits.reshape(bits.shape[:-1] + (bits.shape[-1] // k, k))
    # Each label read as a big-endian integer, one bit column at a time.
    ints = groups[..., 0].astype(np.intp)
    for column in range(1, k):
        ints <<= 1
        ints |= groups[..., column]
    # Every label is in range, so "clip" never clips; it lets np.take write
    # into ``out`` directly instead of through a copy.
    out = _out_array(out, ints.shape, complex)
    return np.take(constellation_points(scheme).point_for_label, ints, out=out, mode="clip")


def demap_symbols(symbols, scheme: ModScheme) -> np.ndarray:
    """Hard-decide symbols (..., n) to the nearest table points and emit their
    label bits (..., n*k).

    The decision is a slicer, O(1) per symbol whatever M, and a distance
    tie goes to the lowest table index (README section 10): the two
    4-point tables by sign (:func:`_four_point_bits`), the other PSK tables
    by the angle (:func:`_psk_indices`) and the other QAM tables by
    rounding each axis to the level grid (:func:`_qam_indices`). A NaN or
    infinite symbol has no nearest point and raises ``ShapeError``.
    """
    symbols = np.asarray(symbols, dtype=complex)
    table = constellation_points(scheme)
    flat = np.ascontiguousarray(symbols.reshape(-1))
    parts = flat.view(float)  # re, im of each symbol in turn
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(parts)
    if not (math.isfinite(total) or np.isfinite(parts).all()):
        raise ShapeError("cannot demap NaN or infinite symbols")
    n = symbols.shape[-1] if symbols.ndim else 1
    shape = symbols.shape[:-1] + (n * table.bits_per_symbol,)
    if scheme.order == 4:
        return _four_point_bits(parts, scheme.family).reshape(shape)
    if scheme.family == "psk":
        idx = _psk_indices(flat, scheme.order)
    else:
        idx = _qam_indices(flat, scheme.order)
    return np.take(table.labels, idx, axis=0).reshape(shape)


def _four_point_bits(parts: np.ndarray, family: str) -> np.ndarray:
    """Label bits of QPSK or 4-QAM symbols given as their interleaved real
    and imaginary parts, decided by sign, exactly (README section 10).

    4-QAM labels (re, im) by (re > 0, im > 0). QPSK point k sits in
    quadrant k + 1 and is labeled gray(k): 00, 01, 11, 10, which are
    (im < 0, re < 0), but for the tie on the imaginary axis below 0
    (re = +-0, im < 0), where point 2's label 11 is taken.
    """
    if family == "qam":
        return (parts > 0).view(np.uint8)
    re, im = parts[0::2], parts[1::2]
    bits = np.empty(parts.shape, bool)
    np.less(im, 0, out=bits[0::2])
    np.less(re, 0, out=bits[1::2])
    bits[1::2] |= bits[0::2] & (re == 0)
    return bits.view(np.uint8)


#: (a, c) of the ray at angle q pi / 4, q = 0..7: a re + c im is the side
#: of a symbol from that ray, positive counterclockwise of it.
_RAY_SIDES = np.array([(0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1)],
                      dtype=float)


def _psk_indices(symbols: np.ndarray, order: int) -> np.ndarray:
    """Nearest PSK point by the angle t = arctan2(im, re) in units of
    2 pi / M (README section 10): index ceil(t) - 1. arctan2 can round an
    angle near a boundary onto it, so the symbols whose t is a whole number
    b are decided again by the exact sign of their side of that boundary
    (``_RAY_SIDES``) when it is an axis or a diagonal, the only boundaries
    a float can lie on; a side of zero, or another boundary, goes to the
    lower index b - 1, and to 0 at b = 0 and at the origin.
    """
    # Contiguous copies: arctan2 on the strided parts takes about twice as
    # long, and gives the same values.
    re, im = np.ascontiguousarray(symbols.real), np.ascontiguousarray(symbols.imag)
    t = np.arctan2(im, re)
    t /= 2.0 * np.pi / order
    idx = np.ceil(t)
    on = np.flatnonzero(idx == t)
    idx = idx.astype(np.intp)
    if on.size:
        x, y, b = re[on], im[on], idx[on]
        ray, off_ray = np.divmod(8 * b, order)
        a, c = _RAY_SIDES[ray & 7].T * (off_ray == 0)
        with np.errstate(over="ignore"):  # the sign survives an overflow
            side = a * x + c * y
        idx[on] += side > 0
        idx[on[(side == 0) & ((b == 0) | ((x == 0) & (y == 0)))]] = 1
    idx -= 1
    idx &= order - 1  # M is a power of two
    return idx


@lru_cache(maxsize=None)
def _qam_grid(order: int) -> tuple[float, np.ndarray]:
    """The QAM table as a level grid: the level spacing d, with the levels
    at odd multiples of d/2, and the table index of each (I level, Q level)
    cell, -1 where the 32-cross has no point."""
    points = constellation_points(ModScheme("qam", order)).points
    spacing = 2.0 * float(np.min(np.abs(points.real)))
    i_odd = np.round(2.0 * points.real / spacing).astype(int)
    q_odd = np.round(2.0 * points.imag / spacing).astype(int)
    n_i, n_q = i_odd.max() + 1, q_odd.max() + 1
    grid = np.full((n_i, n_q), -1, dtype=np.intp)
    grid[(i_odd + n_i - 1) // 2, (q_odd + n_q - 1) // 2] = np.arange(order)
    grid.setflags(write=False)
    return spacing, grid


def _qam_indices(symbols: np.ndarray, order: int) -> np.ndarray:
    """Nearest QAM point: round each axis to its level grid, with a clamp,
    and a 32-cross corner cell to its nearer neighbour (README section 10).

    In units of the level spacing the levels sit at half-integers and the
    boundaries at the integers between them, so the cell of x is ceil(x),
    the lower level on a tie. Corner symbols are compared before the
    division, which can round two coordinates to one value, or both of a
    huge symbol to inf, which the clamp takes to the edge level.
    """
    spacing, grid = _qam_grid(order)
    n_i, n_q = grid.shape
    with np.errstate(over="ignore"):
        x, y = symbols.real / spacing, symbols.imag / spacing
    i = np.clip(np.ceil(x), 1 - n_i // 2, n_i // 2).astype(np.intp) + (n_i // 2 - 1)
    q = np.clip(np.ceil(y), 1 - n_q // 2, n_q // 2).astype(np.intp) + (n_q // 2 - 1)
    idx = np.take(grid, i * n_q + q)
    corner = np.flatnonzero(idx < 0)
    if corner.size:
        re, im = symbols.real[corner], symbols.imag[corner]
        ax, ay = np.abs(re), np.abs(im)
        keep_i = (ax > ay) | ((ax == ay) & (re < 0))
        ci, cq = i[corner], q[corner]
        ci = np.where(keep_i, ci, np.where(ci == 0, 1, n_i - 2))
        cq = np.where(keep_i, np.where(cq == 0, 1, n_q - 2), cq)
        idx[corner] = grid[ci, cq]
    return idx
