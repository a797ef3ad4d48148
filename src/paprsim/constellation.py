"""Bit-to-symbol mapping and hard-decision demapping for PSK and QAM.

Supported schemes are QPSK, 8/16/32-PSK and 4/8/16/32-QAM, all scaled to
unit average symbol energy. PSK rings are Gray labeled around the circle.
Square QAM (orders 4 and 16) is Gray labeled per axis, 8-QAM is a 4x2
rectangle (four I levels, two Q levels) with per-axis Gray labels, and
32-QAM is the 6x6 cross (corners removed) with labels assigned in canonical
point order. QPSK and 4-QAM share the same point set but stay distinct
schemes so experiment tables keep separate rows for them.

Rectangular 8-QAM is the one improper table: its pseudo-variance E[X^2] is
2/3, where every other table has E[X^2] = 0. Distortion that depends on the
transmitted symbols, such as clipping, inherits that impropriety.
"""
from __future__ import annotations

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
        if key == "qpsk":
            return cls("psk", 4)
        if key == "qam":
            return cls("qam", 4)
        for order in SUPPORTED_ORDERS:
            for family in ("psk", "qam"):
                if key == f"{order}{family}":
                    return cls(family, order)
        raise ConfigError(
            f"unknown modulation scheme {name!r}; valid names: {', '.join(SCHEME_NAMES)}"
        )


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


def _gray(n: int) -> int:
    return n ^ (n >> 1)


def _int_to_bits(value: int, width: int) -> np.ndarray:
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


def _axis_labels(n_levels: int) -> list[np.ndarray]:
    """Gray labels for amplitude levels sorted ascending."""
    width = n_levels.bit_length() - 1
    return [_int_to_bits(_gray(i), width) for i in range(n_levels)]


def _psk_table(order: int) -> tuple[np.ndarray, np.ndarray]:
    # Points at angles 2*pi*(k + 1/2)/M so QPSK lands on the diagonals.
    k = np.arange(order)
    points = np.exp(2j * np.pi * (k + 0.5) / order)
    width = order.bit_length() - 1
    labels = np.array([_int_to_bits(_gray(i), width) for i in range(order)], dtype=np.uint8)
    return points, labels


def _qam_table(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order == 32:
        levels = np.array([-5, -3, -1, 1, 3, 5], dtype=float)
        grid = [
            (i, q)
            for i in levels
            for q in levels
            if not (abs(i) == 5 and abs(q) == 5)
        ]
        points = np.array([i + 1j * q for i, q in grid])
        labels = np.array([_int_to_bits(_gray(n), 5) for n in range(32)], dtype=np.uint8)
    else:
        shapes = {4: (2, 2), 8: (4, 2), 16: (4, 4)}
        n_i, n_q = shapes[order]
        i_levels = 2.0 * np.arange(n_i) - (n_i - 1)
        q_levels = 2.0 * np.arange(n_q) - (n_q - 1)
        i_labels = _axis_labels(n_i)
        q_labels = _axis_labels(n_q)
        pts, labs = [], []
        for ii, i_val in enumerate(i_levels):
            for qi, q_val in enumerate(q_levels):
                pts.append(i_val + 1j * q_val)
                labs.append(np.concatenate([i_labels[ii], q_labels[qi]]))
        points = np.array(pts)
        labels = np.array(labs, dtype=np.uint8)
    points = points / np.sqrt(np.mean(np.abs(points) ** 2))
    return points, labels


@lru_cache(maxsize=None)
def _table_cached(family: str, order: int) -> ConstellationTable:
    if family == "psk":
        points, labels = _psk_table(order)
    else:
        points, labels = _qam_table(order)
    width = labels.shape[1]
    weights = 1 << np.arange(width - 1, -1, -1)
    label_ints = labels @ weights
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
    if bits.size and not ((bits == 0) | (bits == 1)).all():
        raise ShapeError("bits must contain only 0 and 1")
    groups = bits.reshape(bits.shape[:-1] + (-1, k)).astype(np.int64)
    ints = groups @ (1 << np.arange(k - 1, -1, -1))
    # Every label is in range, so "clip" never clips; it lets np.take write
    # into ``out`` directly instead of through a copy.
    out = _out_array(out, ints.shape, complex)
    return np.take(constellation_points(scheme).point_for_label, ints, out=out, mode="clip")


def demap_symbols(symbols, scheme: ModScheme) -> np.ndarray:
    """Hard-decide symbols (..., n) to the nearest table points and emit their
    label bits (..., n*k).

    Distance ties go to the lowest table index. The decision is an exact
    slicer, O(1) per symbol whatever M: PSK quantises the angle, QAM rounds
    each axis to the level grid (see :func:`_psk_indices` and
    :func:`_qam_indices`). A NaN or infinite symbol has no nearest point
    and raises ``ShapeError``.
    """
    symbols = np.asarray(symbols, dtype=complex)
    table = constellation_points(scheme)
    flat = symbols.reshape(-1)
    if not np.isfinite(flat).all():
        raise ShapeError("cannot demap NaN or infinite symbols")
    if scheme.family == "psk":
        idx = _psk_indices(flat, scheme.order)
    else:
        idx = _qam_indices(flat, scheme.order)
    return np.take(table.labels, idx, axis=0).reshape(symbols.shape[:-1] + (-1,))


def _psk_indices(symbols: np.ndarray, order: int) -> np.ndarray:
    """Nearest PSK point. Point k sits at angle 2 pi (k + 1/2) / M, so with
    the angle t in units of 2 pi / M, point k owns t in (k, k + 1]: a tie at
    t = b goes to b - 1, the lower index. The exception is t = 0, where
    points M-1 and 0 meet, and the origin, where all meet; both give 0.

    A float can lie exactly on a decision boundary only on the axes and the
    diagonals. On the axes arctan2 returns its exact special values (0, pi/2
    and pi, rounded as the constant pi is), so t is exact after the division
    by 2 pi / M, a power-of-two fraction of pi. On the diagonals t is
    snapped to its exact multiple of M/8, so the tie rule holds however
    arctan2 rounds there.
    """
    re, im = symbols.real, symbols.imag
    t = np.arctan2(im, re)
    t /= 2.0 * np.pi / order
    diagonal = np.abs(re) == np.abs(im)
    snapped = np.round(t[diagonal] * (8 / order)) * (order / 8)
    snapped[re[diagonal] == 0] = 0.0  # the origin, whatever the signs of its zeros
    t[diagonal] = snapped
    at_zero = t == 0
    idx = np.ceil(t, out=t).astype(np.intp)
    idx -= 1
    idx &= order - 1  # M is a power of two
    idx[at_zero] = 0
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
    """Nearest QAM point: round each axis to its level grid, with a clamp.

    In units of the level spacing the levels sit at half-integers and the
    decision boundaries at the integers between them, which the division
    recovers exactly. Table indices grow with the I level, then the Q
    level, so a tie goes to the lower level: the cell of x is ceil(x). A
    corner cell of the 32-cross has no point; there the nearer neighbour is
    the one that keeps the axis with the larger |coordinate|, and a tie on
    the diagonal goes to the one with the lower I level.
    """
    spacing, grid = _qam_grid(order)
    n_i, n_q = grid.shape
    x, y = symbols.real / spacing, symbols.imag / spacing
    i = np.clip(np.ceil(x), 1 - n_i // 2, n_i // 2).astype(np.intp) + (n_i // 2 - 1)
    q = np.clip(np.ceil(y), 1 - n_q // 2, n_q // 2).astype(np.intp) + (n_q // 2 - 1)
    idx = np.take(grid, i * n_q + q)
    corner = np.flatnonzero(idx < 0)
    if corner.size:
        ax, ay = np.abs(x[corner]), np.abs(y[corner])
        keep_i = (ax > ay) | ((ax == ay) & (x[corner] < 0))
        ci, cq = i[corner], q[corner]
        ci = np.where(keep_i, ci, np.where(ci == 0, 1, n_i - 2))
        cq = np.where(keep_i, np.where(cq == 0, 1, n_q - 2), cq)
        idx[corner] = grid[ci, cq]
    return idx
