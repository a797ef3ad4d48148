"""One OFDM symbol through the transmit and receive chain, step by step.

Shows the oversampling layout, the unitary transform identities, prefix
handling, and the passband round trip.

Run:  python demos/02_ofdm_round_trip.py
"""
import numpy as np

from paprsim import (
    ModScheme,
    OfdmParams,
    add_cyclic_prefix,
    demodulate_passband,
    map_bits,
    ofdm_modulate,
    oversample_extend,
    upconvert,
)

params = OfdmParams()
scheme = ModScheme.from_name("qpsk")
rng = np.random.default_rng(7)

print(f"parameters: N={params.n_subcarriers}, L={params.oversample}, "
      f"BW={params.bandwidth_hz/1e6:g} MHz, carrier={params.carrier_hz/1e6:g} MHz, "
      f"fs={params.sample_hz/1e6:g} MHz, cp={params.cp_len}")

bits = rng.integers(0, 2, params.n_subcarriers * scheme.bits_per_symbol)
frame = map_bits(bits, scheme)
print(f"\n1. mapped {bits.size} bits to {frame.size} symbols")

n, total = params.n_subcarriers, params.n_oversampled
extended = oversample_extend(frame, params.oversample)
# X[0..N/2] fill bins 0..N/2 and X[N/2..N-1] the top N/2 bins, so X[N/2]
# sits at both band edges and the bins between them are inserted zeros.
zeros = np.arange(n // 2 + 1, total - n // 2)
data_bins = np.r_[0 : n // 2 + 1, total - n // 2 + 1 : total]
print(f"2. oversample-extended to {extended.size} bins; "
      f"{zeros.size} interior bins are exactly zero "
      f"({np.count_nonzero(extended[zeros]) == 0})")

baseband = ofdm_modulate(extended, params)
energy_f = np.sum(np.abs(extended) ** 2)
energy_t = np.sum(np.abs(baseband) ** 2)
print(f"3. modulated (unitary inverse transform); Parseval residual = "
      f"{abs(energy_f - energy_t) / energy_f:.2e}")

spectrum = np.fft.fft(baseband) / np.sqrt(baseband.size)
print(f"   spectrum on the inserted-zero bins stays below "
      f"{np.max(np.abs(spectrum[zeros])):.2e}")

with_cp = add_cyclic_prefix(baseband, params.cp_oversampled)
print(f"4. cyclic prefix adds {params.cp_oversampled} samples "
      f"-> block of {with_cp.size}")

passband = upconvert(with_cp, params)
print(f"5. passband is real, mean power preserved within "
      f"{abs(np.mean(passband**2) / np.mean(np.abs(with_cp)**2) - 1):.1%}")

stripped = passband[params.cp_oversampled:]
recovered = demodulate_passband(stripped, params)
evm = np.sqrt(np.mean(np.abs(recovered - frame) ** 2))
print(f"6. prefix strip + passband demodulate (mix-down and FFT, gain 1): "
      f"rms EVM = {evm:.2e}")

round_trip = (np.fft.fft(baseband) / np.sqrt(total))[data_bins]
print(f"\npure transform round trip error: {np.max(np.abs(round_trip - frame)):.2e}")
