"""Equiripple linear-phase FIR design by Remez exchange.

Only type-I filters (odd length, even symmetry) are designed, which covers
the composed filter's high-pass. The amplitude response of such a filter is
a cosine polynomial

    A(f) = a[0] + sum_{n=1..R-1} a[n] cos(2 pi f n),   R = (num_taps + 1) / 2,

and the design problem is the weighted Chebyshev approximation of the
desired piecewise-constant response over the union of bands. The exchange
iterates on R + 1 reference frequencies: solve for the levelled error
``delta`` on the reference set, interpolate the implied A(f) barycentrically
on a dense grid, then move the reference to the extrema of the weighted
error. Iteration stops when the reference set is stable or delta changes by
less than 1e-6 relative, with a hard cap of 50 passes. The design returned
is the pass with the smallest dense-grid max error, and it must be the
minimax (McClellan, Parks & Rabiner, 1973): its max weighted error on the
design grid must be within ``MINIMAX_RTOL`` of its levelled error |delta|,
or at round-off, else ``DesignError``. A target whose first pass levels
|delta| far below round-off has no such iterate: the exchange goes on to
chase round-off extrema, and no pass is an equiripple design.

The taps come from the best iterate's R + 1 reference frequencies, where
its levelled values lie exactly on the cosine polynomial: a least-squares
solve of that (R + 1) x R system by a short Householder QR in numpy. It
runs no LAPACK routine, because LAPACK's least squares leaves threaded BLAS
workers spinning after it returns, taking CPU time from the simulation
threads that follow a design. The frequency-sampling step of McClellan,
Parks & Rabiner (the interpolant on a uniform grid, then one real FFT) is
not used: inside wide transition gaps the interpolant amplifies
round-off, so that route refuses designs the reference-set solve accepts
and accepts NaN designs.

No dense grid-by-coefficient cosine matrix is built. The QR takes the
cosines of the R + 1 reference rows only; the minimax check sums the
recovered series on the grid with numpy's ``chebval`` (Clenshaw's
recurrence) in x = cos(2 pi f), since cos(2 pi n f) = T_n(x). The
barycentric kernel lives in one grid-by-reference buffer per design,
refilled on every pass. Index sets are merged by a sort and a neighbour
compare, not ``np.unique`` or ``np.union1d``, which import ``numpy.ma``
into a fresh process.

Frequencies are normalized to the sample rate, so the usable axis is
[0, 0.5].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebval

from .errors import ConfigError, DesignError
from .ofdm_chain import _is_int, _is_real

GRID_DENSITY = 16  # dense-grid points per tap
MAX_ITERATIONS = 50
DELTA_RTOL = 1e-6
MINIMAX_RTOL = 1e-3  # max weighted error over |delta| of the returned iterate


@dataclass(frozen=True)
class FirDesignSpec:
    """Band-defined design target for a type-I equiripple filter.

    ``bands`` are (low, high) edges in normalized frequency, ascending and
    non-overlapping with non-empty transition gaps; ``desired`` and
    ``weights`` give the per-band target gain and error weight.
    """

    num_taps: int
    bands: tuple[tuple[float, float], ...]
    desired: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        taps = self.num_taps
        if not _is_int(taps) or taps < 3 or taps % 2 == 0:
            raise ConfigError("num_taps must be an odd integer >= 3")
        # Stored as tuples, so a validated spec cannot change and is hashable.
        try:
            sequences = {"bands": tuple((lo, hi) for lo, hi in self.bands),
                         "desired": tuple(self.desired), "weights": tuple(self.weights)}
        except (TypeError, ValueError):
            raise ConfigError(
                "bands must be a sequence of (low, high) pairs, and desired and weights "
                f"sequences, got {self.bands!r}, {self.desired!r} and {self.weights!r}"
            ) from None
        for name, value in sequences.items():
            object.__setattr__(self, name, value)
        if not (len(self.bands) == len(self.desired) == len(self.weights)):
            raise ConfigError("bands, desired, and weights must have equal lengths")
        prev_hi = None
        for lo, hi in self.bands:
            if not (_is_real(lo) and _is_real(hi) and 0.0 <= lo < hi <= 0.5):
                raise ConfigError(f"band ({lo}, {hi}) must satisfy 0 <= lo < hi <= 0.5")
            if prev_hi is not None and lo <= prev_hi:
                raise ConfigError("bands must be ascending with non-empty transition gaps")
            prev_hi = hi
        if not all(_is_real(w) and 0 < w < np.inf for w in self.weights):
            raise ConfigError(f"weights must be positive and finite, got {self.weights!r}")
        if not all(_is_real(d) and -np.inf < d < np.inf for d in self.desired):
            raise ConfigError(f"desired gains must be finite, got {self.desired!r}")


@dataclass(frozen=True)
class FirFilter:
    """Designed filter: symmetric taps, originating spec, and achieved ripple.

    ``ripple`` is the maximum weighted error measured on the design grid.
    ``delta_history`` records |delta|, the levelled reference error, at each
    exchange pass; it grows monotonically toward the minimax error, which is
    the classic progress measure of the exchange. ``error_history`` records
    the dense-grid max weighted error per pass (an upper bound on the
    minimax; not monotone in general). Both end at the pass whose iterate
    the taps come from.
    """

    taps: np.ndarray
    spec: FirDesignSpec
    ripple: float
    delta_history: tuple[float, ...] = ()
    error_history: tuple[float, ...] = ()

    @property
    def group_delay(self) -> int:
        return (len(self.taps) - 1) // 2


def _dense_grid(spec: FirDesignSpec, total_points: int):
    """Uniform grid over the band union with per-band endpoint inclusion."""
    widths = [hi - lo for lo, hi in spec.bands]
    total_width = sum(widths)
    freqs, desired, weights, slices = [], [], [], []
    start = 0
    for (lo, hi), d, w, width in zip(spec.bands, spec.desired, spec.weights, widths):
        n = max(2, int(round(total_points * width / total_width)))
        freqs.append(np.linspace(lo, hi, n))
        desired.append(np.full(n, d, dtype=float))
        weights.append(np.full(n, w, dtype=float))
        slices.append(slice(start, start + n))
        start += n
    return np.concatenate(freqs), np.concatenate(desired), np.concatenate(weights), slices


def _barycentric_weights(x: np.ndarray) -> np.ndarray:
    diffs = x[:, None] - x[None, :]
    np.fill_diagonal(diffs, 1.0)
    return 1.0 / np.prod(diffs, axis=1)


def _sorted_distinct(indices: np.ndarray) -> np.ndarray:
    """The distinct values of ``indices``, ascending."""
    indices = np.sort(indices)
    return indices[np.concatenate(([True], indices[1:] != indices[:-1]))]


def _local_maxima(mag: np.ndarray, band_slices) -> np.ndarray:
    """Indices of local maxima of |error|, found per band so band edges count."""
    out = []
    for sl in band_slices:
        seg = mag[sl]
        left_ok = np.empty(seg.size, dtype=bool)
        right_ok = np.empty(seg.size, dtype=bool)
        left_ok[0], left_ok[1:] = True, seg[1:] >= seg[:-1]
        right_ok[-1], right_ok[:-1] = True, seg[:-1] >= seg[1:]
        out.append(sl.start + np.flatnonzero(left_ok & right_ok))
    return np.concatenate(out)


def _select_extrema(err: np.ndarray, candidates: np.ndarray, target: int) -> np.ndarray:
    """Reduce alternation candidates to exactly ``target`` reference points."""
    # Merge each run of consecutive candidates with one error sign into its
    # first largest |error|: a stable sort by run, then by descending
    # |error|, puts that candidate at the run's start. A NaN error has no
    # sign equal to another, so it is a run of its own.
    values = err[candidates]
    signs, mag = np.sign(values), np.abs(values)
    new_run = np.concatenate(([True], signs[1:] != signs[:-1]))
    starts = np.flatnonzero(new_run)
    first_max = np.lexsort((-mag, np.cumsum(new_run)))[starts]
    kept, mag = candidates[first_max], mag[first_max]
    # Trim surplus alternations from the ends, dropping the smaller extremum.
    lo, hi = 0, kept.size
    while hi - lo > target:
        if mag[lo] <= mag[hi - 1]:
            lo += 1
        else:
            hi -= 1
    return kept[lo:hi]


def _reference_coefficients(freqs, ref, levelled) -> np.ndarray:
    """Cosine coefficients through ``levelled`` at the grid frequencies
    ``freqs[ref]``.

    Solves the (R + 1) x R least-squares system ``cos(2 pi outer(freqs[ref],
    arange(R))) @ c = levelled``, of full column rank for distinct reference
    frequencies, by Householder QR. Each reflection is applied with one
    vector-matrix product and one outer product, and the triangular solve
    is a loop of dot products, so no LAPACK routine runs.
    """
    b = np.array(levelled, dtype=float)
    n = b.size - 1
    a = np.cos(2.0 * np.pi * np.outer(freqs[ref], np.arange(n)))
    for k in range(n):
        v = a[k:, k].copy()
        norm = np.sqrt(v @ v)
        v[0] += norm if v[0] >= 0.0 else -norm
        v /= np.sqrt(v @ v)
        a[k:, k:] -= np.outer(2.0 * v, v @ a[k:, k:])
        b[k:] -= (2.0 * (v @ b[k:])) * v
    coeffs = np.zeros(n)
    for k in range(n - 1, -1, -1):
        coeffs[k] = (b[k] - a[k, k + 1 : n] @ coeffs[k + 1 :]) / a[k, k]
    return coeffs


def design_equiripple(spec: FirDesignSpec) -> FirFilter:
    """Design a type-I equiripple filter for ``spec`` via Remez exchange."""
    n_coeffs = (spec.num_taps + 1) // 2
    n_ref = n_coeffs + 1
    # Every band gets max(2, round(GRID_DENSITY * num_taps * width / total))
    # points, so the grid holds at least 0.8 GRID_DENSITY num_taps of them and
    # the evenly spread initial references are distinct (test_fir_design).
    freqs, desired, weights, slices = _dense_grid(spec, GRID_DENSITY * spec.num_taps)
    x_grid = np.cos(2.0 * np.pi * freqs)
    flat_scale = max(1.0, float(np.max(np.abs(desired) * weights)))

    ref = np.round(np.linspace(0, freqs.size - 1, n_ref)).astype(int)

    signs = np.where(np.arange(n_ref) % 2 == 0, 1.0, -1.0)
    kernel = np.empty((freqs.size, n_ref))
    history: list[float] = []
    delta_history: list[float] = []
    delta = np.inf
    best_error, best_pass = np.inf, 0
    for _ in range(MAX_ITERATIONS):
        x_ref = x_grid[ref]
        gamma = _barycentric_weights(x_ref)
        delta_new = (gamma @ desired[ref]) / (gamma @ (signs / weights[ref]))
        delta_history.append(abs(float(delta_new)))
        levelled = desired[ref] - signs * delta_new / weights[ref]

        # Barycentric evaluation of the implied amplitude over the dense grid.
        # Grid frequencies are distinct, so x collisions happen only at the
        # reference points themselves; patch those entries afterwards.
        with np.errstate(divide="ignore", invalid="ignore"):
            np.subtract(x_grid[:, None], x_ref, out=kernel)
            np.divide(gamma, kernel, out=kernel)
            amplitude = (kernel @ levelled) / kernel.sum(axis=1)
        amplitude[ref] = levelled

        err = weights * (desired - amplitude)
        history.append(float(np.max(np.abs(err))))
        if history[-1] <= best_error:
            best_error, best_pass = history[-1], len(history)
            best_ref, best_levelled = ref, levelled

        if history[-1] <= 1e-12 * flat_scale:
            break  # target is exactly representable (e.g. all-pass)
        # The current reference alternates at +-delta by construction, so
        # including it guarantees enough alternating candidates survive.
        candidates = _sorted_distinct(np.concatenate((_local_maxima(np.abs(err), slices), ref)))
        new_ref = _select_extrema(err, candidates, n_ref)
        if new_ref.size < n_ref:
            raise DesignError(
                f"exchange lost alternation structure ({new_ref.size} of {n_ref} "
                f"references); last delta {abs(delta_new):.6e}"
            )
        stable = np.array_equal(new_ref, ref)
        delta_stable = abs(abs(delta_new) - abs(delta)) <= DELTA_RTOL * abs(delta_new) + 1e-15
        ref, delta = new_ref, delta_new
        if stable or delta_stable:
            break
    else:
        raise DesignError(
            f"Remez exchange did not converge in {MAX_ITERATIONS} iterations; "
            f"last delta {abs(delta):.6e}"
        )

    if not best_pass:
        raise DesignError(
            f"Remez exchange found no pass with a finite error in {len(history)} passes"
        )

    # Recover the cosine coefficients at the best iterate's reference set:
    # its levelled values lie on the one cosine polynomial of R terms, so
    # the (R + 1) x R system is consistent and its least-squares solution
    # is that polynomial. The QR uses vector products only, as does the
    # exchange loop; a LAPACK solve here would leave threaded BLAS workers
    # spinning after the design (see the module docstring).
    coeffs = _reference_coefficients(freqs, best_ref, best_levelled)
    taps = np.zeros(spec.num_taps)
    mid = (spec.num_taps - 1) // 2
    taps[mid] = coeffs[0]
    half = coeffs[1:] / 2.0
    taps[mid + 1 :] = half
    taps[:mid] = half[::-1]

    achieved = weights * (desired - chebval(x_grid, coeffs))
    ripple = float(np.max(np.abs(achieved)))
    level = delta_history[best_pass - 1]
    if not np.isfinite(ripple) or (
        ripple > (1.0 + MINIMAX_RTOL) * level and ripple > 1e-12 * flat_scale
    ):
        raise DesignError(
            f"Remez exchange stopped short of the minimax: max error {ripple:.6e} "
            f"exceeds |delta| {level:.6e} by more than {MINIMAX_RTOL:g} relative"
        )
    taps.setflags(write=False)
    return FirFilter(
        taps=taps,
        spec=spec,
        ripple=ripple,
        delta_history=tuple(delta_history[:best_pass]),
        error_history=tuple(history[:best_pass]),
    )


def amplitude_response(fir: FirFilter, grid) -> np.ndarray:
    """Real zero-phase amplitude A(f) of a symmetric filter on a normalized grid."""
    f = np.asarray(grid, dtype=float)
    mid = fir.group_delay
    m = np.arange(1, mid + 1)
    return fir.taps[mid] + 2.0 * (np.cos(2.0 * np.pi * np.outer(f, m)) @ fir.taps[mid + 1 :])
