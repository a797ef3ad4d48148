"""The benchmark's workloads: deterministic operation lists built from a seed.

Every workload is a closed loop run by one caller: an operation starts when
the previous one returns. An operation is either an experiment call
(``run_papr_experiment`` / ``run_ber_experiment`` on a generated
``ExperimentSpec``, one or more cells) or one ``simulate_chain_ber``
loopback. Operations come in steps; a run is the first ``steps`` steps.
The seed only chooses the random draws and, for ``papr_ccdf`` and
``ber_sweep``, the clipping ratio the run starts at; the sequence of band
plans and schemes is fixed so that runs compare like with like.

Reference statistics for every cell an operation can produce live in
``reference.json`` (see ``make_reference.py``); cell keys name the plan, the
kind of cell, the scheme and the grid point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from paprsim import ExperimentSpec, ModScheme, OfdmParams, PaprSimError

SCHEMES = ("qpsk", "qam", "8psk", "8qam", "16psk", "16qam", "32psk", "32qam")
REFERENCE_CRS = (0.8, 1.0, 1.2, 1.4, 1.6)
EBN0_GRID_DB = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
BER_SWEEP_CRS = (0.8, 1.2, 1.6)

PAPR_SYMBOLS = 10_000
BER_BITS = 200_000

SMALL_PAPR_SYMBOLS = 1000
SMALL_READ_POINT = 1e-2
SMALL_CRS = (1.0, 1.4)
SMALL_EBN0_DB = (4.0, 8.0)
SMALL_BER_BITS = 20_000
LOOPBACK_BITS = 40_000

#: Band plans of ``small_specs``: (N, L, f_c in MHz, hpf_num_taps, cp_len,
#: scheme), all at 1 MHz bandwidth. Every carrier sits on an FFT bin. Plan 0
#: puts the band edge exactly at Nyquist (f_c + BW/2 = fs/2), which the
#: parameter checks accept but the receiver gets wrong. The rest were drawn
#: once at random (N from {64, 128, 256}, L from 5..16 with N*L in
#: 640..4096, f_c on a 0.25 MHz grid at least 0.25 MHz below the band-edge
#: limit, odd tap counts in 41..161, cp_len N/8 or N/4) and are kept as
#: drawn. There are enough plans that a run of a few tens of seconds does not
#: come round to plan 0 again, so the image-filter cache stays cold.
SMALL_PLANS = (
    (128, 5, 2.0, 41, 32, "16qam"),
    (256, 9, 2.75, 65, 64, "qam"),
    (64, 14, 5.75, 115, 16, "8psk"),
    (64, 11, 3.75, 51, 16, "8qam"),
    (64, 16, 5.5, 139, 8, "16psk"),
    (64, 14, 5.25, 49, 8, "16qam"),
    (128, 6, 2.25, 117, 16, "32psk"),
    (128, 16, 4.5, 127, 16, "32qam"),
    (256, 11, 3.0, 99, 32, "qpsk"),
    (128, 8, 2.5, 51, 16, "qam"),
    (64, 13, 2.0, 55, 8, "8psk"),
    (128, 5, 1.0, 65, 16, "8qam"),
    (64, 14, 3.0, 105, 8, "16psk"),
    (256, 16, 6.5, 137, 64, "16qam"),
    (256, 14, 5.75, 93, 64, "32psk"),
    (256, 14, 4.25, 53, 32, "32qam"),
    (128, 11, 1.0, 117, 32, "qpsk"),
    (64, 14, 5.0, 53, 8, "qam"),
    (128, 12, 4.75, 83, 32, "8psk"),
    (128, 10, 1.0, 85, 16, "8qam"),
    (256, 8, 3.0, 159, 64, "16psk"),
    (256, 6, 2.0, 127, 64, "16qam"),
    (256, 10, 1.75, 101, 32, "32psk"),
    (128, 10, 4.0, 65, 16, "32qam"),
    (64, 13, 1.75, 103, 16, "qpsk"),
    (64, 16, 6.0, 151, 8, "qam"),
    (64, 10, 1.75, 91, 16, "8psk"),
    (64, 13, 2.0, 105, 8, "8qam"),
    (64, 11, 2.25, 135, 8, "16psk"),
    (256, 11, 2.0, 131, 64, "16qam"),
    (64, 16, 6.75, 151, 16, "32psk"),
    (128, 9, 1.0, 141, 32, "32qam"),
    (128, 14, 5.75, 135, 32, "qpsk"),
    (128, 16, 5.5, 147, 32, "qam"),
    (128, 9, 1.0, 149, 32, "8psk"),
    (256, 15, 4.25, 109, 32, "8qam"),
    (256, 13, 3.25, 129, 64, "16psk"),
    (256, 11, 3.25, 85, 32, "16qam"),
    (64, 10, 1.0, 129, 16, "32psk"),
    (128, 16, 6.0, 121, 16, "32qam"),
    (64, 16, 4.75, 105, 16, "qpsk"),
    (64, 13, 1.0, 61, 8, "qam"),
    (128, 14, 4.25, 123, 16, "8psk"),
    (128, 12, 3.75, 115, 16, "8qam"),
    (64, 13, 1.5, 119, 8, "16psk"),
    (256, 10, 2.75, 123, 64, "16qam"),
    (128, 15, 1.0, 113, 32, "32psk"),
    (128, 10, 3.5, 115, 32, "32qam"),
    (256, 14, 5.5, 97, 32, "qpsk"),
    (256, 16, 2.5, 43, 32, "qam"),
    (256, 5, 1.75, 79, 32, "8psk"),
    (128, 7, 1.25, 67, 16, "8qam"),
    (64, 10, 3.0, 137, 8, "16psk"),
    (128, 16, 3.25, 63, 16, "16qam"),
    (128, 9, 2.25, 135, 32, "32psk"),
    (128, 13, 3.5, 135, 32, "32qam"),
    (256, 16, 2.25, 95, 32, "qpsk"),
    (256, 15, 3.5, 139, 32, "qam"),
    (64, 13, 1.0, 135, 16, "8psk"),
    (128, 16, 2.25, 71, 32, "8qam"),
    (128, 6, 1.0, 89, 32, "16psk"),
    (64, 15, 5.0, 97, 16, "16qam"),
    (128, 7, 2.0, 115, 16, "32psk"),
    (256, 6, 2.25, 135, 32, "32qam"),
)


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``kind`` is "papr" or "ber" (an experiment call on ``spec``),
    "loopback" (a noiseless, unclipped ``simulate_chain_ber`` on ``params``
    and ``scheme``) or "rejected" (the program refused to build the plan's
    spec; ``error`` says why, and the run counts one failed operation).
    ``plan`` names the band plan in cell keys.
    """

    kind: str
    plan: str
    spec: ExperimentSpec | None = None
    params: OfdmParams | None = None
    scheme: ModScheme | None = None
    min_bits: int = 0
    seed: int = 0
    error: str = ""

    def cells(self):
        """(cell key, OFDM symbols pushed through the chain) per cell, in the
        order the harness runs them."""
        if self.kind == "rejected":
            yield f"{self.plan}/rejected", 0
            return
        if self.kind == "loopback":
            yield f"{self.plan}/loopback/{self.scheme.name}", frames(
                self.params, self.scheme, self.min_bits
            )
            return
        spec = self.spec
        for scheme in spec.schemes:
            for cr in spec.cr_values:
                if self.kind == "papr":
                    yield papr_key(self.plan, scheme.name, cr), spec.n_symbols
                    continue
                n = frames(spec.params, scheme, spec.bits_per_point)
                for ebn0 in spec.ebn0_grid_db:
                    yield ber_key(self.plan, scheme.name, cr, ebn0), n


def papr_key(plan: str, scheme: str, cr: float) -> str:
    return f"{plan}/papr/{scheme}/{cr:g}"


def ber_key(plan: str, scheme: str, cr: float, ebn0: float) -> str:
    return f"{plan}/ber/{scheme}/{cr:g}/{ebn0:g}"


def frames(params: OfdmParams, scheme: ModScheme, min_bits: int) -> int:
    """OFDM frames a BER cell or loopback transmits (as the harness sizes it)."""
    return max(1, math.ceil(min_bits / (params.n_subcarriers * scheme.bits_per_symbol)))


def derive_seed(seed: int, workload: str, index: int) -> int:
    """Spec seed of operation ``index``: distinct per workload and operation."""
    tag = int.from_bytes(workload.encode(), "little") % (1 << 32)
    return int(np.random.SeedSequence([seed, tag, index]).generate_state(1)[0])


def _schemes(*names: str) -> tuple[ModScheme, ...]:
    return tuple(ModScheme.from_name(n) for n in names)


def _small_params(plan) -> OfdmParams:
    n, oversample, carrier_mhz, _, cp_len, _ = plan
    return OfdmParams(
        n_subcarriers=n, oversample=oversample, carrier_hz=carrier_mhz * 1e6, cp_len=cp_len
    )


class Workload:
    """A named sequence of steps. ``step_seconds`` is the typical duration of
    one step on the 2-core machine the benchmark was defined on; a run of
    ``--seconds`` takes round(seconds / step_seconds) steps, so every commit
    does the same work. ``trace_steps`` is the fixed prefix the traced run
    replays, so traced counts repeat exactly."""

    name = ""
    step_seconds = 1.0
    trace_steps = 1

    def ops(self, seed: int, index: int) -> list[Op]:
        """Operations of step ``index`` (one or more)."""
        raise NotImplementedError

    def run_ops(self, seed: int, steps: int) -> list[Op]:
        return [op for index in range(steps) for op in self.ops(seed, index)]

    def reference_ops(self, seed: int) -> list[Op]:
        """One pass over every cell the workload can produce."""
        raise NotImplementedError


class PaprCcdf(Workload):
    """All eight schemes at the reference parameters and 10^4 symbols per
    cell. Each clipping ratio takes two experiment calls of four schemes, so
    an operation is a few seconds and a run's scheme mix stays balanced."""

    name = "papr_ccdf"
    step_seconds = 6.0
    trace_steps = 2

    @staticmethod
    def _groups() -> tuple[tuple[str, ...], ...]:
        half = (len(SCHEMES) + 1) // 2
        return SCHEMES[:half], SCHEMES[half:]

    def _op(self, seed: int, index: int, cr: float, schemes: tuple[str, ...]) -> Op:
        spec = ExperimentSpec(
            schemes=_schemes(*schemes),
            cr_values=(cr,),
            n_symbols=PAPR_SYMBOLS,
            seed=derive_seed(seed, self.name, index),
        )
        return Op("papr", "ref", spec=spec)

    def ops(self, seed, index):
        cr = REFERENCE_CRS[(seed + index // 2) % len(REFERENCE_CRS)]
        group = self._groups()[index % 2]
        return [self._op(seed, index, cr, group)] if group else []

    def reference_ops(self, seed):
        return [
            self._op(seed, 2 * i + j, cr, group)
            for i, cr in enumerate(REFERENCE_CRS)
            for j, group in enumerate(self._groups())
            if group
        ]


class BerSweep(Workload):
    """Reference parameters, full Eb/N0 grid, 2*10^5 bits per cell; one
    experiment call per clipping ratio over all eight schemes, so every
    operation has the same scheme mix (cell cost depends on the scheme)."""

    name = "ber_sweep"
    step_seconds = 7.5
    trace_steps = len(BER_SWEEP_CRS)

    def _op(self, seed: int, index: int, cr: float) -> Op:
        spec = ExperimentSpec(
            schemes=_schemes(*SCHEMES),
            cr_values=(cr,),
            ebn0_grid_db=EBN0_GRID_DB,
            bits_per_point=BER_BITS,
            seed=derive_seed(seed, self.name, index),
        )
        return Op("ber", "ref", spec=spec)

    def ops(self, seed, index):
        return [self._op(seed, index, BER_SWEEP_CRS[(seed + index) % len(BER_SWEEP_CRS)])]

    def reference_ops(self, seed):
        return [self._op(seed, i, cr) for i, cr in enumerate(BER_SWEEP_CRS)]


class SmallSpecs(Workload):
    """One short experiment per band plan: a 1000-symbol PAPR run, a short
    BER run and one noiseless unclipped loopback."""

    name = "small_specs"
    step_seconds = 0.6
    trace_steps = 12

    def _experiment(self, seed: int, index: int, with_loopback: bool) -> list[Op]:
        plan = SMALL_PLANS[index % len(SMALL_PLANS)]
        plan_name = f"p{index % len(SMALL_PLANS):02d}"
        scheme = ModScheme.from_name(plan[5])
        op_seed = derive_seed(seed, self.name, index)
        try:
            params = _small_params(plan)
            spec = ExperimentSpec(
                params=params,
                schemes=(scheme,),
                cr_values=SMALL_CRS,
                ccdf_read_point=SMALL_READ_POINT,
                n_symbols=SMALL_PAPR_SYMBOLS,
                ebn0_grid_db=SMALL_EBN0_DB,
                bits_per_point=SMALL_BER_BITS,
                seed=op_seed,
                hpf_num_taps=plan[3],
            )
        except PaprSimError as exc:  # a plan the program refuses is a failed operation
            return [Op("rejected", plan_name, error=f"{type(exc).__name__}: {exc}")]
        ops = [Op("papr", plan_name, spec=spec), Op("ber", plan_name, spec=spec)]
        if with_loopback:
            ops.append(
                Op(
                    "loopback", plan_name, params=params, scheme=scheme,
                    min_bits=LOOPBACK_BITS, seed=op_seed,
                )
            )
        return ops

    def ops(self, seed, index):
        return self._experiment(seed, index, with_loopback=True)

    def reference_ops(self, seed):
        ops = []
        for index in range(len(SMALL_PLANS)):
            ops.extend(self._experiment(seed, index, with_loopback=False))
        return ops


WORKLOADS = {w.name: w for w in (PaprCcdf(), BerSweep(), SmallSpecs())}
