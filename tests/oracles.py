"""Independent reference computations used to check the library.

Everything here deliberately avoids the library's own code paths: the
minimax ripple comes from a linear program, a FIR design's taps from
LAPACK's least squares over the whole design grid (the library solves a
QR at the exchange's reference set) and from that QR run on rows of the
dense grid-by-coefficient cosine matrix, and its ripple from that matrix
(the library builds no such matrix), the exchange's reference selection
from its former loop over the candidates, transforms from dense matrix
products, demapping from an exhaustive search, CCDFs from direct counting,
the BER of a constellation under Gaussian (I, Q) errors from a Monte Carlo
draw sliced by exhaustive search, the composed filter and the PAPR envelope
from the literal real-passband chain (upconvert, FFT, per-bin gain, IFFT,
analytic signal), which the library folds into one baseband operator, and
the received symbols from the literal receiver (complex mixer, prefix
strip, full complex FFT), which the library folds into one real FFT read
at shifted bins, and the BER channel from the per-cell time-domain path (AWGN on
every passband sample, then ``demodulate_passband``), which the library
replaces by noise drawn at the data bins, and the PAPR cell and the BER
unit's transmission from their whole-batch forms, which the library
streams chunk by chunk (``carrier_frames`` rolls the extended frame to
the carrier bin, where the library places it), and a BER unit's Eb/N0 points from whole-unit
arrays with any normals per point: the library scales one shared draw,
and a draw of each point's own (``per_point_normals``) is how the points
were drawn before. The passband filter reads its per-bin gain from
``band_gains``, the one definition of that gain. The former bit mapper
(an integer matrix product over an int64 copy of the bits) and PAPR read
(``np.max`` and ``np.mean`` of |x|^2) check the library's faster forms,
which must give the same values bit for bit.

It also keeps the literal pieces of the textbook chain that the pipeline
does not run: the RMS of a signal (the pipeline's clip level is the closed
form sqrt((N+1)/(N*L))), the hard limiter of real passband samples (the
pipeline clips the complex baseband), the baseband demodulator (the
pipeline receives passband blocks with ``demodulate_passband``), the
prefix strip as a function, the index set of the inserted zero bins, and
the descriptions of a FIR design (its complex response, its weighted
error on a fresh grid and the count of its alternating extrema).
"""
import numpy as np
from scipy.optimize import linprog

from paprsim import (
    ConfigError,
    OfdmParams,
    ShapeError,
    add_awgn,
    add_cyclic_prefix,
    amplitude_response,
    band_gains,
    clip_attenuation,
    clip_baseband,
    composed_filter,
    constellation_points,
    demap_symbols,
    demodulate_passband,
    map_bits,
    noise_sigma,
    ofdm_modulate,
    oversample_extend,
    papr_db,
    upconvert,
)
from paprsim.fir_design import GRID_DENSITY, _dense_grid
from paprsim.harness import _clip_level, _random_bits, envelope_magnitude
from paprsim.ofdm_chain import _require_block

# Band plans of the fold-versus-oracle tests, with the ``default_hpf_spec``
# edges each needs: the reference plan; the Nyquist-edge plan (band edge on
# bin N*L/2, small_specs p00); a high carrier; a DC-edge plan (band edge on
# bin 0), which needs explicit high-pass edges.
ORACLE_PLANS = {
    "reference": (OfdmParams(), {}),
    "nyquist_edge": (OfdmParams(n_subcarriers=128, oversample=5, carrier_hz=2e6), {}),
    "high_carrier": (OfdmParams(n_subcarriers=64, oversample=14, carrier_hz=5.75e6), {}),
    "dc_edge": (OfdmParams(n_subcarriers=64, oversample=4, carrier_hz=0.5e6, cp_len=16),
                dict(stop_edge=0.01, pass_edge=0.03)),
}


def rms(samples) -> float:
    """Root mean square of the sample magnitudes over the whole array."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ShapeError("rms of an empty signal is undefined")
    return float(np.sqrt(np.mean(np.abs(samples) ** 2)))


def clip_passband(samples, amplitude: float) -> np.ndarray:
    """Hard-limit real samples to [-amplitude, +amplitude]."""
    if amplitude <= 0:
        raise ConfigError("clip amplitude must be positive")
    return np.clip(samples, -amplitude, amplitude)


def remove_cyclic_prefix(samples, cp_samples: int) -> np.ndarray:
    """Drop the first cp_samples samples of each block."""
    samples = np.asarray(samples)
    if cp_samples < 0 or cp_samples >= samples.shape[-1]:
        raise ShapeError(
            f"cp_samples = {cp_samples} must be < signal length {samples.shape[-1]}"
        )
    return samples[..., cp_samples:]


def frequency_response(fir, grid) -> np.ndarray:
    """Complex response H(f) = sum_n h[n] exp(-j 2 pi f n) on a normalized grid."""
    f = np.asarray(grid, dtype=float)
    n = np.arange(len(fir.taps))
    return np.exp(-2j * np.pi * np.outer(f, n)) @ fir.taps


def weighted_error(fir, total_points: int = 4096):
    """Weighted approximation error of the design, on a fresh dense grid."""
    freqs, desired, weights, _ = _dense_grid(fir.spec, total_points)
    return freqs, weights * (desired - amplitude_response(fir, freqs))


def alternation_count(fir, total_points: int = 4096, tol: float = 0.01) -> int:
    """Number of alternating error extrema that touch the ripple level.

    Counts maximal runs of near-ripple points (within ``tol`` relative of the
    stored ripple) whose error signs alternate along the frequency axis.
    """
    _, err = weighted_error(fir, total_points)
    touching = np.nonzero(np.abs(err) >= (1.0 - tol) * fir.ripple)[0]
    count = 0
    last_sign = 0.0
    for idx in touching:
        sign = np.sign(err[idx])
        if sign != last_sign:
            count += 1
            last_sign = sign
    return count


def cosine_matrix(freqs, n_coeffs: int) -> np.ndarray:
    """The dense design-grid matrix cos(2 pi f n), n = 0..n_coeffs-1."""
    return np.cos(2.0 * np.pi * np.outer(freqs, np.arange(n_coeffs)))


def lstsq_coefficients(freqs, ref, levelled) -> np.ndarray:
    """The Remez exchange's least-squares tap recovery, a drop-in for
    ``fir_design._reference_coefficients``.

    The iterate's barycentric interpolant through ``levelled`` at the
    reference frequencies ``freqs[ref]`` is sampled over the whole design
    grid, and LAPACK's least squares fits the cosine coefficients to those
    samples.
    """
    cos_matrix = cosine_matrix(freqs, len(levelled) - 1)
    x_grid = cos_matrix[:, 1]
    x_ref = x_grid[ref]
    diffs = x_ref[:, None] - x_ref[None, :]
    np.fill_diagonal(diffs, 1.0)
    gamma = 1.0 / np.prod(diffs, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = gamma[None, :] / (x_grid[:, None] - x_ref[None, :])
        amplitude = (kernel @ levelled) / kernel.sum(axis=1)
    amplitude[ref] = levelled
    coeffs, *_ = np.linalg.lstsq(cos_matrix, amplitude, rcond=None)
    return coeffs


def dense_qr_coefficients(freqs, ref, levelled) -> np.ndarray:
    """The reference-set Householder QR run on the rows ``ref`` of the
    dense cosine matrix over the whole design grid, as the exchange ran it
    while it built that matrix; a drop-in for
    ``fir_design._reference_coefficients``."""
    a = cosine_matrix(freqs, len(levelled) - 1)[ref]
    b = np.array(levelled, dtype=float)
    n = a.shape[1]
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


def select_extrema_by_loop(err, candidates, target: int) -> np.ndarray:
    """The Remez exchange's former reference selection, a loop over the
    candidates: merge consecutive candidates of one error sign, keeping
    the first largest |error|, then trim the smaller end until ``target``
    remain."""
    kept: list[int] = []
    for idx in candidates:
        if kept and np.sign(err[idx]) == np.sign(err[kept[-1]]):
            if abs(err[idx]) > abs(err[kept[-1]]):
                kept[-1] = idx
        else:
            kept.append(idx)
    while len(kept) > target:
        if abs(err[kept[0]]) <= abs(err[kept[-1]]):
            kept.pop(0)
        else:
            kept.pop()
    return np.array(kept, dtype=int)


def dense_ripple(fir) -> float:
    """A design's max weighted error on its own design grid, its cosine
    series summed as the dense cosine matrix times the coefficients."""
    freqs, desired, weights, _ = _dense_grid(fir.spec, GRID_DENSITY * fir.spec.num_taps)
    mid = fir.group_delay
    coeffs = np.r_[fir.taps[mid], 2.0 * fir.taps[mid + 1 :]]
    return float(np.max(np.abs(weights * (desired - cosine_matrix(freqs, mid + 1) @ coeffs))))


def inserted_zero_bins(n_subcarriers: int, oversample: int) -> np.ndarray:
    """Indices of the oversampling zero-insertion region in an N*L frame."""
    n = n_subcarriers
    return np.arange(n // 2 + 1, n * oversample - n // 2)


def ofdm_demodulate(samples, params) -> np.ndarray:
    """Forward-transform baseband samples (..., N*L) and read the N data bins."""
    samples = np.asarray(samples)
    _require_block(samples, params, "signal")
    n, total = params.n_subcarriers, params.n_oversampled
    spectrum = np.fft.fft(samples, axis=-1) / np.sqrt(total)
    out = np.empty(samples.shape[:-1] + (n,), dtype=complex)
    out[..., : n // 2 + 1] = spectrum[..., : n // 2 + 1]
    out[..., n // 2 + 1 :] = spectrum[..., total - n // 2 + 1 :]
    return out


def chebyshev_lp_ripple(spec, n_grid: int = 2048) -> float:
    """Minimax weighted ripple of a type-I design, via linear programming.

    Solves min delta s.t. |W(f) (A(f) - D(f))| <= delta over a dense grid,
    where A(f) = a0 + sum a_n cos(2 pi f n) with (num_taps + 1) / 2 cosine
    coefficients.
    """
    n_coeffs = (spec.num_taps + 1) // 2
    widths = [hi - lo for lo, hi in spec.bands]
    total = sum(widths)
    freqs, desired, weights = [], [], []
    for (lo, hi), d, w, width in zip(spec.bands, spec.desired, spec.weights, widths):
        n = max(2, int(round(n_grid * width / total)))
        freqs.append(np.linspace(lo, hi, n))
        desired.append(np.full(n, float(d)))
        weights.append(np.full(n, float(w)))
    f = np.concatenate(freqs)
    d = np.concatenate(desired)
    w = np.concatenate(weights)
    cosines = np.cos(2.0 * np.pi * np.outer(f, np.arange(n_coeffs)))
    # variables: [a_0 .. a_{R-1}, delta]
    wc = w[:, None] * cosines
    a_ub = np.block([[wc, -np.ones((f.size, 1))], [-wc, -np.ones((f.size, 1))]])
    b_ub = np.concatenate([w * d, -(w * d)])
    cost = np.zeros(n_coeffs + 1)
    cost[-1] = 1.0
    bounds = [(None, None)] * n_coeffs + [(0, None)]
    result = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert result.success, result.message
    return float(result.x[-1])


def direct_oversampled_idft(frame: np.ndarray) -> np.ndarray:
    """O(n^2) evaluation of the unitary inverse DFT, scale 1/sqrt(n)."""
    n = frame.size
    m = np.arange(n)
    kernel = np.exp(2j * np.pi * np.outer(m, m) / n) / np.sqrt(n)
    return kernel @ frame


def brute_nearest_labels(symbols, points, labels) -> np.ndarray:
    """Exhaustive nearest-point demap: |y - p| to every table point, the
    smallest wins, and ``np.argmin`` takes the lowest index among equal
    distances. Returns the label bits, flattened."""
    symbols = np.asarray(symbols, dtype=complex).reshape(-1)
    points = np.asarray(points, dtype=complex)
    labels = np.asarray(labels, dtype=np.uint8)
    out = np.empty((symbols.size, labels.shape[1]), dtype=np.uint8)
    for start in range(0, symbols.size, 1 << 15):
        chunk = symbols[start : start + (1 << 15)]
        nearest = np.argmin(np.abs(chunk[:, None] - points[None, :]), axis=1)
        out[start : start + chunk.size] = labels[nearest]
    return out.reshape(-1)


def improper_gaussian_ber(points, labels, cov, n_symbols: int, seed: int = 0):
    """BER of nearest-point detection under additive Gaussian (I, Q) errors.

    Draws ``n_symbols`` uniformly chosen table points, adds real Gaussian
    (I, Q) error pairs with the 2x2 covariance ``cov`` (improper when the two
    diagonal entries differ or the off-diagonal is nonzero), and slices each
    sample by exhaustive search over |y - p|^2, ties to the lowest table
    index. Returns (ber, standard_error); the standard error comes from the
    spread of per-symbol bit-error counts, since the bits of one symbol fail
    together. A fixed ``seed`` gives common random numbers across calls
    with the same order and size.
    """
    points = np.asarray(points, dtype=complex)
    labels = np.asarray(labels, dtype=np.uint8)
    chol = np.linalg.cholesky(np.asarray(cov, dtype=float))
    rng = np.random.default_rng(seed)
    counts = []
    for start in range(0, n_symbols, 1 << 16):
        n = min(1 << 16, n_symbols - start)
        sent = rng.integers(0, points.size, n)
        iq = rng.standard_normal((n, 2)) @ chol.T
        y = points[sent] + iq[:, 0] + 1j * iq[:, 1]
        decided = np.argmin(np.abs(y[:, None] - points[None, :]) ** 2, axis=1)
        counts.append(np.count_nonzero(labels[decided] != labels[sent], axis=1))
    counts = np.concatenate(counts)
    k = labels.shape[1]
    return float(counts.mean() / k), float(counts.std(ddof=1) / k / np.sqrt(n_symbols))


def brute_ccdf(values, thresholds) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.array([(values > t).mean() for t in np.asarray(thresholds, dtype=float)])


def gaussian_tail(x: float) -> float:
    """Q(x) for the standard normal."""
    from math import erfc, sqrt

    return 0.5 * erfc(x / sqrt(2.0))


def passband_composed_filter(passband, params, hpf) -> np.ndarray:
    """The composed filter on real passband blocks (..., N*L): FFT, the
    real even ``band_gains``, IFFT, real part."""
    spectrum = np.fft.fft(passband, axis=-1) * band_gains(params, hpf)
    return np.fft.ifft(spectrum, axis=-1).real


def analytic_envelope(passband, params) -> np.ndarray:
    """sqrt(2) |analytic signal| of real passband blocks (..., N*L): keep the
    positive-frequency occupied bins, leave out a band edge on Nyquist (it is
    its own conjugate image), inverse transform."""
    band = params.occupied_bins
    mask = np.zeros(params.n_oversampled, dtype=bool)
    mask[band[2 * band < params.n_oversampled]] = True
    return np.sqrt(2.0) * np.abs(np.fft.ifft(np.fft.fft(passband, axis=-1) * mask, axis=-1))


def passband_clip_filter_blocks(baseband_blocks, amplitude, params, hpf) -> np.ndarray:
    """Clip baseband blocks with their prefix, upconvert the whole block,
    strip the prefix, filter the passband symbol and prepend its tail."""
    cp_n = params.cp_oversampled
    passband = upconvert(clip_baseband(baseband_blocks, amplitude), params)
    filtered = passband_composed_filter(passband[..., cp_n:], params, hpf)
    return np.concatenate([filtered[..., filtered.shape[-1] - cp_n :], filtered], axis=-1)


def passband_receive_symbols(blocks, params) -> np.ndarray:
    """The literal receiver on prefixed real passband blocks (..., cp + N*L):
    mix down by sqrt(2) exp(-j 2 pi f_c m / f_s) from each block's first
    sample, strip the prefix, FFT (unitary) and read the N data bins:
    0..N/2, then -N/2+1..-1. The mixer's 2 f_c image lands on bins
    -(2 k_c + j) and no image-reject filter is applied: it never reaches a
    data bin. X[N/2] is read at +N/2 unless the band edge k_c + N/2 is the
    passband's Nyquist bin, which keeps only the real part of its copy; then
    it is read at -N/2, the other copy of X[N/2] that is sent."""
    n, total, cp_n = params.n_subcarriers, params.n_oversampled, params.cp_oversampled
    # f_c m / f_s = k_c m / (N*L) turns, reduced mod 1 in integers so that
    # the phase of a late sample carries no round-off from whole turns.
    turns = params.carrier_bin * np.arange(blocks.shape[-1]) % total / total
    mixed = np.sqrt(2.0) * blocks * np.exp(-2j * np.pi * turns)
    spectrum = np.fft.fft(mixed[..., cp_n:], axis=-1) / np.sqrt(total)
    bins = np.r_[0 : n // 2 + 1, total - n // 2 + 1 : total]
    if 2 * (params.carrier_bin + n // 2) == total:
        bins[n // 2] = total - n // 2
    return spectrum[..., bins]


def baseband_frames(bits, scheme, params) -> np.ndarray:
    """Map, extend and modulate a whole batch of bit rows at once; returns
    the baseband blocks (frames, N*L), no prefix."""
    return ofdm_modulate(oversample_extend(map_bits(bits, scheme), params.oversample), params)


def carrier_frames(bits, scheme, params) -> np.ndarray:
    """The experiments' modulator output for a whole batch of bit rows: the
    extended frames rolled up by the carrier bin k_c, then modulated, so
    each block is x c, the baseband block times the carrier, as the
    harness's chunks form it bit for bit."""
    frames = oversample_extend(map_bits(bits, scheme), params.oversample)
    return ofdm_modulate(np.roll(frames, params.carrier_bin, axis=-1), params)


def transmit_blocks(bits, scheme, params, cr, hpf) -> np.ndarray:
    """The BER unit's transmission as one whole-batch chain: the baseband of
    every frame, clipped at the closed-form level ``_clip_level(params, cr)``
    and filtered unless cr is None, given its cyclic prefix and upconverted.
    Returns the real passband blocks (frames, cp + N*L)."""
    symbols = baseband_frames(bits, scheme, params)
    if cr is not None:
        symbols = composed_filter(clip_baseband(symbols, _clip_level(params, cr)), params, hpf)
    return upconvert(add_cyclic_prefix(symbols, params.cp_oversampled), params)


def time_domain_ber_cell(bits, scheme, params, cr, ebn0_db, hpf, rng):
    """The per-cell BER channel that the library's data-bin noise replaces,
    on given bit rows: transmit them (``transmit_blocks``), calibrate
    sigma_n to the mean square of the passband blocks, prefix included,
    taken as the mean of the per-block mean squares, add white real
    Gaussian noise to every passband sample, strip the prefix and
    demodulate with ``demodulate_passband``. Returns (power, sigma_n, clean,
    noisy): the received symbols at gain 1 without and with the noise."""
    blocks = transmit_blocks(bits, scheme, params, cr, hpf)
    power = float(np.mean(np.mean(blocks**2, axis=-1)))
    sigma_n = noise_sigma(params, scheme, ebn0_db, power)
    cp_n = params.cp_oversampled
    clean = demodulate_passband(remove_cyclic_prefix(blocks, cp_n), params)
    noisy = demodulate_passband(remove_cyclic_prefix(add_awgn(blocks, sigma_n, rng), cp_n), params)
    return power, sigma_n, clean, noisy


def complex_normals(rng, shape) -> np.ndarray:
    """A complex array of ``shape`` whose real and imaginary parts are
    standard normals, drawn in row order: 2N normals for a row of N."""
    return rng.standard_normal((*shape[:-1], 2 * shape[-1])).view(complex)


def per_point_normals(entropy, ebn0_grid_db, shape) -> list:
    """The normals of a BER unit's Eb/N0 points when each point drew its
    own: SeedSequence(entropy).spawn(1 + len(ebn0_grid_db)), child 1 + i
    for point i, each a whole-unit draw."""
    seeds = np.random.SeedSequence(entropy).spawn(1 + len(ebn0_grid_db))
    return [complex_normals(np.random.default_rng(seed), shape) for seed in seeds[1:]]


def label_bits(labels, scheme) -> np.ndarray:
    """The bits (..., n*k) of label integers (..., n), each label's k bits
    in big-endian order, as ``map_bits`` reads them."""
    k = scheme.bits_per_symbol
    labels = np.asarray(labels)
    bits = (labels[..., None].astype(int) >> np.arange(k - 1, -1, -1)) & 1
    return bits.astype(np.uint8).reshape(labels.shape[:-1] + (labels.shape[-1] * k,))


def ber_points(bits, power, clean, scheme, params, cr, ebn0_grid_db, normals) -> list:
    """The error counts of a BER unit's Eb/N0 points on whole-unit arrays:
    point i adds sigma_n(i) times ``normals[i]`` to the noise-free symbols
    ``clean``, divides by the clipper's gain (1 unclipped) with numpy's
    complex division and slices with ``demap_symbols``. An Eb/N0 of None
    adds no noise."""
    gain = 1.0 if cr is None else clip_attenuation(cr)
    counts = []
    for ebn0_db, z in zip(ebn0_grid_db, normals):
        noisy = clean if ebn0_db is None else clean + noise_sigma(params, scheme, ebn0_db, power) * z
        counts.append(int(np.count_nonzero(demap_symbols(noisy / gain, scheme) != bits)))
    return counts


def batch_papr_cell(spec, scheme, cr, rng, hpf):
    """The PAPR cell in its whole-batch form, which the library streams:
    draw every bit row at once, modulate the whole batch, clip it at the
    closed-form level ``_clip_level(params, cr)``, apply the composed filter
    and read the envelope PAPR of every symbol, the unclipped one from the
    literal analytic envelope of its passband. Returns (clipped-and-filtered
    PAPR, unclipped PAPR) in dB, one value per symbol."""
    params = spec.params
    bits = _random_bits(rng, spec.n_symbols, params.n_subcarriers * scheme.bits_per_symbol)
    baseband = baseband_frames(bits, scheme, params)
    amplitude = _clip_level(params, cr)
    envelope = envelope_magnitude(
        composed_filter(clip_baseband(baseband, amplitude), params, hpf), params
    )
    return papr_db(envelope), papr_db(analytic_envelope(upconvert(baseband, params), params))


def map_bits_by_matmul(bits, scheme) -> np.ndarray:
    """The former ``map_bits`` on valid bits: each group of log2(M) bits
    read as a big-endian label by an int64 copy and an integer matrix
    product, then looked up in the table."""
    bits = np.asarray(bits)
    k = scheme.bits_per_symbol
    groups = bits.reshape(bits.shape[:-1] + (-1, k)).astype(np.int64)
    return constellation_points(scheme).point_for_label[groups @ (1 << np.arange(k - 1, -1, -1))]


def papr_db_max_mean(samples) -> np.ndarray:
    """PAPR in dB of each block along the last axis, from ``np.max`` and
    ``np.mean`` of the instantaneous power |x|^2."""
    power = np.abs(np.asarray(samples)) ** 2
    return 10.0 * np.log10(np.max(power, axis=-1) / np.mean(power, axis=-1))
