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
    downconvert,
    inserted_zero_bins,
    map_bits,
    ofdm_demodulate,
    ofdm_modulate,
    oversample_extend,
    remove_cyclic_prefix,
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

extended = oversample_extend(frame, params.oversample)
zeros = inserted_zero_bins(params.n_subcarriers, params.oversample)
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

received = downconvert(passband, params)
stripped = remove_cyclic_prefix(received, params.cp_oversampled)
recovered = ofdm_demodulate(stripped, params)
evm = np.sqrt(np.mean(np.abs(recovered - frame) ** 2))
print(f"6. downconvert + prefix strip + demodulate: rms EVM = {evm:.2%}")

round_trip = ofdm_demodulate(ofdm_modulate(extended, params), params)
print(f"\npure transform round trip error: {np.max(np.abs(round_trip - frame)):.2e}")
