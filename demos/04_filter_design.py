"""Equiripple FIR design: the high-pass of the composed filter.

Designs the one filter the simulator uses, the composed filter's in-band
high-pass, then reports ripple, attenuation, and the minimax test: the
max weighted error over the last pass's levelled error |delta|.

Run:  python demos/04_filter_design.py
"""
import numpy as np

from paprsim import OfdmParams, amplitude_response, default_hpf_spec, design_equiripple
from paprsim.fir_design import MINIMAX_RTOL

params = OfdmParams()
spec = default_hpf_spec(params)
fir = design_equiripple(spec)

print(f"composed-filter high-pass: {spec.num_taps} taps")
for (lo, hi), d in zip(spec.bands, spec.desired):
    print(f"  band [{lo:.5f}, {hi:.5f}] of fs, target gain {d:g}")
print(f"  achieved ripple {fir.ripple:.3e} after {len(fir.delta_history)} exchange passes")
print(f"  levelled error per pass: "
      + " -> ".join(f"{d:.2e}" for d in fir.delta_history))
minimax = fir.ripple / abs(fir.delta_history[-1])
print(f"  max error / |delta| = {minimax:.6f} (1 for the minimax; refused above {1 + MINIMAX_RTOL:g})")
grid = np.linspace(*spec.bands[0], 2048)
att = -20 * np.log10(np.max(np.abs(amplitude_response(fir, grid))))
print(f"  stopband attenuation {att:.1f} dB")
print(f"  taps symmetric: {np.array_equal(fir.taps, fir.taps[::-1])}")
