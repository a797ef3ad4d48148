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


def map_bits(bits, scheme: ModScheme) -> np.ndarray:
    """Map 0/1 bits (..., n*k) to complex symbols (..., n), k = log2(M)."""
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
    return constellation_points(scheme).point_for_label[ints]


def demap_symbols(symbols, scheme: ModScheme) -> np.ndarray:
    """Hard-decide symbols (..., n) to the nearest table points and emit their
    label bits (..., n*k).

    Distance ties go to the lowest table index.
    """
    symbols = np.asarray(symbols, dtype=complex)
    table = constellation_points(scheme)
    idx = _nearest_indices(symbols.reshape(-1), table.points)
    return table.labels[idx].reshape(symbols.shape[:-1] + (-1,))


def _nearest_indices(symbols: np.ndarray, points: np.ndarray) -> np.ndarray:
    # argmin of |y - p|^2 = argmin of |p|^2 - 2 Re(y conj(p)); |y|^2 is constant per row.
    re = np.outer(symbols.real, points.real) + np.outer(symbols.imag, points.imag)
    scores = np.abs(points) ** 2 - 2.0 * re
    return np.argmin(scores, axis=1)
