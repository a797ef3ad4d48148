"""Independent reference computations used to check the library.

Everything here deliberately avoids the library's own code paths: the
minimax ripple comes from a linear program, transforms from dense matrix
products, demapping from an exhaustive search, CCDFs from direct counting,
the BER of a constellation under Gaussian (I, Q) errors from a Monte Carlo
draw sliced by exhaustive search, the composed filter and the PAPR envelope
from the literal real-passband chain (upconvert, FFT, per-bin gain, IFFT,
analytic signal), which the library folds into one baseband operator, and
the received symbols from the literal receiver (mixer, time-domain
image-reject low-pass, prefix strip, FFT), which the library folds into one
real FFT, and the BER channel from the per-cell time-domain path (AWGN on
every passband sample, then ``demodulate_passband``), which the library
replaces by noise drawn at the data bins, and the PAPR cell from its
whole-batch form, which the library streams chunk by chunk. The passband
filter reads its per-bin gain from ``band_gains``, the one definition of
that gain, and the receiver its low-pass from ``image_reject_lowpass``.
"""
import numpy as np
from scipy.optimize import linprog

from paprsim import (
    NoiseConfig,
    OfdmParams,
    add_awgn,
    band_gains,
    clip_baseband,
    composed_filter,
    demodulate_passband,
    noise_sigma,
    papr_db,
    upconvert,
)
from paprsim.fir_design import FirDesignSpec
from paprsim.harness import (
    _clip_filter_blocks,
    _clip_level,
    _random_bits,
    _tx_baseband_frames,
    envelope_magnitude,
)
from paprsim.ofdm_chain import IMAGE_REJECT_TAPS, image_reject_lowpass

# Band plans of the fold-versus-oracle tests, with the ``default_hpf_spec``
# edges each needs: the reference plan; the Nyquist-edge plan (band edge on
# bin N*L/2, small_specs p00); a high carrier; a DC-edge plan (band edge on
# bin 0), which ``ExperimentSpec`` refuses because the receiver's low-pass
# cannot be designed, but whose transmit side is well defined.
ORACLE_PLANS = {
    "reference": (OfdmParams(), {}),
    "nyquist_edge": (OfdmParams(n_subcarriers=128, oversample=5, carrier_hz=2e6), {}),
    "high_carrier": (OfdmParams(n_subcarriers=64, oversample=14, carrier_hz=5.75e6), {}),
    "dc_edge": (OfdmParams(n_subcarriers=64, oversample=4, carrier_hz=0.5e6, cp_len=16),
                dict(stop_edge=0.01, pass_edge=0.03)),
}


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


def image_reject_filter(params):
    """The receiver's image-reject low-pass: pass edge BW/2, stop edge f_c."""
    return image_reject_lowpass(FirDesignSpec(
        IMAGE_REJECT_TAPS,
        ((0.0, params.bandwidth_hz / 2 / params.sample_hz), (params.carrier_hz / params.sample_hz, 0.5)),
        (1.0, 0.0),
        (1.0, 1.0),
    ))


def passband_receive_symbols(blocks, params) -> np.ndarray:
    """The literal receiver on prefixed real passband blocks (..., cp + N*L):
    mix down by sqrt(2) exp(-j 2 pi f_c m / f_s) from each block's first
    sample, low-pass with the image-reject design as a direct-form FIR over
    a periodic extension of the block, group delay compensated, strip the
    prefix, FFT (unitary) and read the N data bins: 0..N/2, then
    -N/2+1..-1. X[N/2] is read at +N/2 unless the band edge k_c + N/2 is
    the passband's Nyquist bin, which keeps only the real part of its copy;
    then it is read at -N/2, the other copy of X[N/2] that is sent."""
    n, total, cp_n = params.n_subcarriers, params.n_oversampled, params.cp_oversampled
    length = blocks.shape[-1]
    m = np.arange(length)
    mixed = np.sqrt(2.0) * blocks * np.exp(-2j * np.pi * params.carrier_hz * m / params.sample_hz)
    taps = image_reject_filter(params).taps
    pad, delay = taps.size, (taps.size - 1) // 2
    # The block continues with period N*L on both sides. The block's last
    # samples would misplace the left pad by the prefix length, which
    # reaches the data when the prefix is shorter than the group delay.
    ext = np.concatenate(
        [mixed[..., length - cp_n - pad : length - cp_n], mixed, mixed[..., cp_n : cp_n + pad]],
        axis=-1,
    )
    filtered = sum(taps[k] * ext[..., pad - delay + k : pad - delay + k + length]
                   for k in range(taps.size))
    spectrum = np.fft.fft(filtered[..., cp_n:], axis=-1) / np.sqrt(total)
    bins = np.r_[0 : n // 2 + 1, total - n // 2 + 1 : total]
    if 2 * (params.carrier_bin + n // 2) == total:
        bins[n // 2] = total - n // 2
    return spectrum[..., bins]


def time_domain_ber_cell(bits, scheme, params, cr, ebn0_db, hpf, rng):
    """The per-cell BER channel that the library's data-bin noise replaces,
    on given bit rows: transmit them (the harness's own transmit, clipped at
    the closed-form level ``_clip_level(params, cr)`` and filtered unless cr
    is None), calibrate sigma_n to the mean square of the passband blocks,
    prefix included, add white real Gaussian noise to every passband sample,
    strip the prefix and demodulate with ``demodulate_passband``. Returns (power, sigma_n, clean, noisy): the
    received symbols at gain 1 without and with the noise."""
    baseband = _tx_baseband_frames(bits, scheme, params, cp=params.cp_len > 0)
    if cr is None:
        blocks = upconvert(baseband, params)
    else:
        blocks = _clip_filter_blocks(baseband, _clip_level(params, cr), params, hpf)
    power = float(np.mean(blocks**2))
    config = NoiseConfig(
        ebn0_db=ebn0_db,
        bits_per_symbol=scheme.bits_per_symbol,
        occupied_fraction=1.0 / params.oversample,
        cp_overhead=params.n_subcarriers / (params.n_subcarriers + params.cp_len),
    )
    sigma_n = noise_sigma(config, power)
    cp_n = params.cp_oversampled
    clean = demodulate_passband(blocks[:, cp_n:], params)
    noisy = demodulate_passband(add_awgn(blocks, sigma_n, rng)[:, cp_n:], params)
    return power, sigma_n, clean, noisy


def batch_papr_cell(spec, scheme, cr, rng, hpf):
    """The PAPR cell in its whole-batch form, which the library streams:
    draw every bit row at once, modulate the whole batch, clip it at the
    closed-form level ``_clip_level(params, cr)``, apply the composed filter
    and read the envelope PAPR of every symbol. Returns (clipped-and-filtered
    PAPR, unclipped PAPR) in dB, one value per symbol."""
    params = spec.params
    bits = _random_bits(rng, spec.n_symbols, params.n_subcarriers * scheme.bits_per_symbol)
    baseband = _tx_baseband_frames(bits, scheme, params, cp=False)
    amplitude = _clip_level(params, cr)
    envelope = envelope_magnitude(
        composed_filter(clip_baseband(baseband, amplitude), params, hpf), params
    )
    return papr_db(envelope), papr_db(baseband)
