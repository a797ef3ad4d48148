"""Clipping and composed filtering of a batch of OFDM symbols.

Demonstrates the clip-level bookkeeping (A = CR * sigma, sigma the RMS of
the OFDM signal, sqrt((N+1)/(N*L))), the out-of-band energy that clipping
creates and the composed filter removes, and peak regrowth. Every stage
takes the whole batch at once: one row per symbol, samples along the last
axis.

Run:  python demos/03_clip_and_filter.py
"""
import math

import numpy as np

from paprsim import (
    ExperimentSpec,
    ModScheme,
    OfdmParams,
    band_gains,
    clip_baseband,
    composed_filter,
    envelope_magnitude,
    experiment_hpf,
    map_bits,
    ofdm_modulate,
    oversample_extend,
    papr_db,
    rms,
    upconvert,
)

params = OfdmParams()
scheme = ModScheme.from_name("qpsk")
hpf = experiment_hpf(ExperimentSpec())
rng = np.random.default_rng(3)

n_frames = 500
bits_per_frame = params.n_subcarriers * scheme.bits_per_symbol
bits = rng.integers(0, 2, size=(n_frames, bits_per_frame), dtype=np.uint8)
baseband = ofdm_modulate(oversample_extend(map_bits(bits, scheme), params.oversample), params)
# Unit-energy points on N + 1 of the N*L bins (X[N/2] sits at both band
# edges) through a unitary IFFT: sigma is known before any bit is drawn.
n, oversample = params.n_subcarriers, params.oversample
sigma = math.sqrt((n + 1) / (n * oversample))
print(f"sigma = sqrt((N+1)/(N*L)) = {sigma:.4f}; "
      f"RMS of this batch of {n_frames} symbols = {rms(baseband):.4f}")

in_band = band_gains(params, hpf) != 0
for cr in (0.8, 1.2, 1.6):
    amplitude = cr * sigma
    clipped = clip_baseband(baseband, amplitude)
    filtered = composed_filter(clipped, params, hpf)
    envelope = envelope_magnitude(filtered, params)

    papr_before = np.median(papr_db(baseband))
    papr_after = np.median(papr_db(envelope))

    # The composed filter zeroes every out-of-band bin exactly, so what it
    # removes is the out-of-band energy the clipper spread into the passband.
    spectrum = np.fft.fft(upconvert(clipped, params), axis=-1)
    oob = np.sum(np.abs(spectrum[:, ~in_band]) ** 2)
    total = np.sum(np.abs(spectrum) ** 2)
    regrown = np.mean(np.max(envelope, axis=1) > amplitude)

    print(f"\nCR = {cr}: clip level A = {amplitude:.4f}")
    print(f"  median envelope PAPR: {papr_before:.2f} dB -> {papr_after:.2f} dB")
    print(f"  out-of-band share of the clipped signal, removed by the filter: "
          f"{oob / total:.2%} ({10 * np.log10(oob / total):.1f} dB)")
    print(f"  frames whose peak regrows above A: {regrown:.0%}")
