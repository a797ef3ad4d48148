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
def _label_bits(width: int) -> np.ndarray:
    """The bits of every label integer of ``width`` bits: row L holds L's
    bits, big-endian, uint8 (2^width, width). Read-only."""
    ints = np.arange(1 << width)
    bits = (ints[:, None] >> np.arange(width - 1, -1, -1) & 1).astype(np.uint8)
    bits.setflags(write=False)
    return bits


@lru_cache(maxsize=None)
def _table_cached(family: str, order: int) -> ConstellationTable:
    points, label_ints = (_psk_table if family == "psk" else _qam_table)(order)
    labels = _label_bits(order.bit_length() - 1)[label_ints]
    point_for_label = np.empty(order, dtype=complex)
    point_for_label[label_ints] = points
    for arr in (points, labels, point_for_label):
        arr.setflags(write=False)
    return ConstellationTable(points=points, labels=labels, point_for_label=point_for_label)


def constellation_points(scheme: ModScheme) -> ConstellationTable:
    """Return the fixed unit-energy table for the scheme."""
    return _table_cached(scheme.family, scheme.order)


def map_bits(bits, scheme: ModScheme, *, out=None, labels=None) -> np.ndarray:
    """Map 0/1 bits (..., n*k) to complex symbols (..., n), k = log2(M).

    ``out``, a complex (..., n) array, receives the symbols in place of a
    new array. ``labels``, if given, a uint8 (..., n) array, receives each
    symbol's label integer, its k bits read as a big-endian integer.
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
    if labels is not None:
        _out_array(labels, ints.shape, np.uint8)[...] = ints
    # Every label is in range, so "clip" never clips; it lets np.take write
    # into ``out`` directly instead of through a copy.
    out = _out_array(out, ints.shape, complex)
    return np.take(constellation_points(scheme).point_for_label, ints, out=out, mode="clip")


def demap_symbols(symbols, scheme: ModScheme) -> np.ndarray:
    """Hard-decide symbols (..., n) to the nearest table points and emit their
    label bits (..., n*k).

    The decision is the slicer a BER point runs (:func:`_slice_labels`,
    README section 10): O(1) per symbol whatever M, exact, and a distance
    tie goes to the lowest table index. Its label integers are expanded to
    bits here. A NaN or infinite symbol has no nearest point and raises
    ``ShapeError``.
    """
    symbols = np.asarray(symbols, dtype=complex)
    flat = np.ascontiguousarray(symbols.reshape(-1))
    labels = _slice_labels(flat, scheme, np.empty(2 * flat.size))
    k = scheme.bits_per_symbol
    n = symbols.shape[-1] if symbols.ndim else 1
    return np.take(_label_bits(k), labels, axis=0).reshape(symbols.shape[:-1] + (n * k,))


def _slice_labels(
    symbols: np.ndarray, scheme: ModScheme, work: np.ndarray, finite: bool = False,
) -> np.ndarray:
    """The label integers of the table points nearest ``symbols``, a
    C-contiguous complex array, as uint8 of its shape: the one decision of
    ``demap_symbols`` and of a BER point (README section 10), by family
    (:func:`_psk_labels`, :func:`_qam_labels`). ``work``, a float array of
    at least 2 * symbols.size items, holds the temporaries and the labels,
    which are a view of its bytes; a caller that hands in a buffer of its
    own allocates nothing of the symbols' size. A NaN or infinite symbol
    raises ``ShapeError``, after one sum over the parts, finite only when
    every part is (an overflowing sum is checked part by part), unless
    ``finite`` says the caller has shown every symbol finite.
    """
    parts = symbols.reshape(-1).view(float)  # re, im of each symbol in turn
    if not finite:
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.add.reduce(parts)
        if not (math.isfinite(total) or np.isfinite(parts).all()):
            raise ShapeError("cannot demap NaN or infinite symbols")
    decide = _psk_labels if scheme.family == "psk" else _qam_labels
    return decide(parts, scheme.order, work).reshape(symbols.shape)


def _sign_labels(parts: np.ndarray, work: np.ndarray, negative: bool) -> np.ndarray:
    """Labels 2 b_re + b_im (``negative`` False) or b_re + 2 b_im (True) of
    the symbols whose interleaved parts are ``parts``, b a part's sign bit:
    part > 0, or part < 0 if ``negative``. One comparison over the parts
    writes the pairs (b_re, b_im) as little-endian 16-bit words b_re +
    256 b_im, whose products with 0x0201 or 0x0102 hold the label in their
    high byte; the labels are written to the bytes of ``work`` after the
    pairs."""
    n = parts.size // 2
    signs = work.view(np.uint8)[: 2 * n]
    (np.less if negative else np.greater)(parts, 0, out=signs.view(bool))
    pairs = signs.view("<u2")
    pairs *= 0x0102 if negative else 0x0201
    labels = work.view(np.uint8)[2 * n : 3 * n]
    np.right_shift(pairs, 8, out=labels, casting="unsafe")
    return labels


#: How near a whole number t = arctan2(im, re) / (2 pi / M) must lie for a
#: PSK symbol to be decided by its exact side of that boundary, in integers
#: (``_boundary_decisions``): 2^-40, about 9.1e-13, over 300 times the
#: largest error of t measured (README section 10).
_NEAR_WHOLE = 2.0**-40


def _fixed_cosines() -> tuple[int, ...]:
    """cos(j pi / 16) 2^256, j = 0..31, each the integer nearest it: j = 0..8
    by the half-angle formula cos(a / 2) = sqrt((1 + cos a) / 2) from
    cos 0 = 1 and cos(pi / 2) = 0, by ``math.isqrt`` with 64 guard bits,
    and the rest by symmetry. So they are 0 and +-2^256 on the axes, and
    cos and sin have one magnitude on the diagonals."""
    one = 1 << 320
    cos = [one] + [0] * 8
    for j in (4, 2, 6, 1, 3, 5, 7):
        twice = cos[2 * j] if j <= 4 else -cos[16 - 2 * j]
        cos[j] = math.isqrt((one + twice) << 319)
    first = [(c + (1 << 63)) >> 64 for c in cos]
    folded = (min(j, 32 - j) for j in range(32))  # cos(2 pi - a) = cos a
    return tuple(first[j] if j <= 8 else -first[16 - j] for j in folded)


#: cos(j pi / 16) 2^256 to the nearest integer, j = 0..31; sin(j pi / 16)
#: is entry j - 8.
_FIXED_COS = _fixed_cosines()


def _boundary_decisions(x: np.ndarray, y: np.ndarray, whole: np.ndarray, order: int) -> np.ndarray:
    """Table indices of PSK symbols x + iy next to boundary b = ``whole`` (a
    float integer), the ray at theta_b = 2 pi b / M between points b - 1 and
    b: point b when the side y cos theta_b - x sin theta_b is positive, b - 1
    when negative (README section 10). The side is taken in integers, one
    symbol at a time: each part is an integer over a power of two
    (``float.as_integer_ratio``), so the side times both powers is an
    integer at any magnitude, with cos theta_b and sin theta_b held as
    the integers nearest them times 2^256 (``_FIXED_COS``). A side of
    zero, which a float symbol can have only on an axis or a diagonal,
    where those integers are 0 and +-2^256 or equal in size, ties: the
    lower index, b - 1, but 0 at b = 0 and at the origin.
    """
    indices = []
    for re, im, b in zip(x.tolist(), y.tolist(), whole.astype(int).tolist()):
        (px, qx), (py, qy) = re.as_integer_ratio(), im.as_integer_ratio()
        j = b * (32 // order)
        side = py * qx * _FIXED_COS[j % 32] - px * qy * _FIXED_COS[(j - 8) % 32]
        on_zero = side == 0 and (b % order == 0 or re == im == 0)
        indices.append(0 if on_zero else b - (side <= 0))
    return np.array(indices, dtype=np.intp) & (order - 1)


def _psk_labels(parts: np.ndarray, order: int, work: np.ndarray) -> np.ndarray:
    """Labels of the nearest PSK points to the symbols whose interleaved
    parts are ``parts``, in ``work`` (README section 10).

    QPSK by sign: point k sits in quadrant k + 1 and is labeled gray(k):
    (im < 0, re < 0), but for the tie on the imaginary axis below 0
    (re = +-0, im < 0), where point 2's label 11 is taken.

    Other orders by the angle t = arctan2(im, re) in units of 2 pi / M:
    point k owns t in (k, k + 1], so its index is ceil(t) - 1 (mod M) and
    its label the Gray code of that. A symbol whose t lies within
    ``_NEAR_WHOLE`` of a whole number b, which includes every t that
    arctan2's rounding could have moved across b, is decided instead by its
    exact side of that boundary, in Python integers, one symbol at a time
    (``_boundary_decisions``). Two reductions over t's distance below its
    ceiling find whether any does.
    """
    n = parts.size // 2
    if order == 4:
        labels = _sign_labels(parts, work, negative=True)
        zero = np.equal(parts, 0, out=work.view(bool)[: 2 * n])  # over the spent pairs
        if zero.any():
            tie = np.flatnonzero(zero[0::2])
            labels[tie] |= parts[2 * tie + 1] < 0
        return labels
    # Contiguous parts: arctan2 on the strided parts takes about twice as long.
    t, ceil_t = work[:n], work[n : 2 * n]
    np.copyto(t, parts[0::2])
    np.copyto(ceil_t, parts[1::2])
    np.arctan2(ceil_t, t, out=t)
    t *= order / (2.0 * math.pi)
    np.ceil(t, out=ceil_t)
    below = np.subtract(ceil_t, t, out=t)  # in [0, 1)
    near = None
    if (np.minimum.reduce(below, initial=1.0) <= _NEAR_WHOLE
            or np.maximum.reduce(below, initial=0.0) >= 1.0 - _NEAR_WHOLE):
        near = np.flatnonzero((below <= _NEAR_WHOLE) | (below >= 1.0 - _NEAR_WHOLE))
        decided = _boundary_decisions(parts[2 * near], parts[2 * near + 1],
                                      ceil_t[near] - (below[near] > 0.5), order)
    # ceil(t) - 1 + M lies in [M/2 - 1, 3M/2], so the byte cast is exact.
    ceil_t += order - 1
    labels, shifted = work.view(np.uint8)[:n], work.view(np.uint8)[n : 2 * n]
    np.copyto(labels, ceil_t, casting="unsafe")
    labels &= order - 1
    np.right_shift(labels, 1, out=shifted)
    labels ^= shifted  # the Gray code k ^ (k >> 1)
    if near is not None:
        labels[near] = _gray(decided)
    return labels


#: The label of a 32-QAM grid cell that has no point.
_CORNER = 0xFF


@lru_cache(maxsize=None)
def _qam_grid(order: int) -> tuple[float, np.ndarray]:
    """The QAM table as a level grid: the level spacing d, with the levels
    at odd multiples of d/2, and the label integer of each (I level, Q
    level) cell, ``_CORNER`` where the 32-cross has no point."""
    table = constellation_points(ModScheme("qam", order))
    points, k = table.points, table.bits_per_symbol
    spacing = 2.0 * float(np.min(np.abs(points.real)))
    i_odd = np.round(2.0 * points.real / spacing).astype(int)
    q_odd = np.round(2.0 * points.imag / spacing).astype(int)
    n_i, n_q = i_odd.max() + 1, q_odd.max() + 1
    cells = np.full((n_i, n_q), _CORNER, dtype=np.uint8)
    cells[(i_odd + n_i - 1) // 2, (q_odd + n_q - 1) // 2] = table.labels @ (1 << np.arange(k)[::-1])
    cells.setflags(write=False)
    return spacing, cells


def _qam_labels(parts: np.ndarray, order: int, work: np.ndarray) -> np.ndarray:
    """Labels of the nearest QAM points to the symbols whose interleaved
    parts are ``parts``, in ``work`` (README section 10).

    4-QAM by sign: the label is (re > 0, im > 0). Other orders round each
    axis to its level grid, with a clamp: in units of the level spacing
    the levels sit at half-integers and the boundaries at the integers
    between them, so the cell of x is ceil(x), the lower level on a tie.
    The clamped cells index a table of labels. A 32-cross corner cell,
    which has no point, goes to its nearer neighbour, compared before the
    division, which can round two coordinates to one value, or both of a
    huge symbol to inf, which the clamp takes to the edge level.
    """
    n = parts.size // 2
    if order == 4:
        return _sign_labels(parts, work, negative=False)
    spacing, cells = _qam_grid(order)
    n_i, n_q = cells.shape
    x, y = work[:n], work[n : 2 * n]
    with np.errstate(over="ignore"):
        np.divide(parts[0::2], spacing, out=x)
        np.divide(parts[1::2], spacing, out=y)
    for axis, levels in ((x, n_i), (y, n_q)):
        np.ceil(axis, out=axis)
        np.clip(axis, 1 - levels // 2, levels // 2, out=axis)
    # The cell's flat index (i + n_i/2 - 1) n_q + q + n_q/2 - 1, a small
    # whole number, so exact as a float.
    x *= n_q
    x += y
    x += (n_i // 2 - 1) * n_q + n_q // 2 - 1
    index = y.view(np.intp)[:n]
    np.copyto(index, x, casting="unsafe")
    labels = work.view(np.uint8)[:n]
    np.take(cells.reshape(-1), index, out=labels, mode="clip")
    if order == 32:
        in_corner = np.equal(labels, _CORNER, out=work.view(bool)[n : 2 * n])
        if in_corner.any():
            corner = np.flatnonzero(in_corner)
            re, im = parts[2 * corner], parts[2 * corner + 1]
            ax, ay = np.abs(re), np.abs(im)
            keep_i = (ax > ay) | ((ax == ay) & (re < 0))
            ci, cq = np.divmod(index[corner], n_q)
            ci = np.where(keep_i, ci, np.where(ci == 0, 1, n_i - 2))
            cq = np.where(keep_i, np.where(cq == 0, 1, n_q - 2), cq)
            labels[corner] = cells[ci, cq]
    return labels
