"""Span tracing of the calls harness makes into each layer.

The tracer wraps, from outside the program, the module-level names that
``paprsim.harness`` resolves at call time (the stage table lives in
``interactions.json``). Every wrapped call records a span: stage name, start,
end, parent span and the cell it ran in. Spans stay in memory and are written
out when the run ends.

A stage's self time is its span's duration minus the time covered by its
child spans. Work counts come from argument shapes and are labelled computed;
they are worked out after the span has ended, and that bookkeeping is charged
to no stage, so it shows only in the overhead ratio.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from workloads import SCHEMES

TABLE_PATH = Path(__file__).with_name("interactions.json")

_BYTES_COMPLEX, _BYTES_FLOAT = 16, 8


def load_stages() -> list[dict]:
    with open(TABLE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["stages"]


def _papr_cell_bytes(a) -> int:
    """Full-batch arrays of a PAPR cell: bits, complex baseband, one |x|^2
    temporary, and the two PAPR vectors."""
    spec, scheme = a["spec"], a["scheme"]
    n, points = spec.n_symbols, spec.params.n_oversampled
    bits = n * spec.params.n_subcarriers * scheme.bits_per_symbol
    return bits + n * points * (_BYTES_COMPLEX + _BYTES_FLOAT) + 2 * n * _BYTES_FLOAT


def _ber_cell_bytes(a) -> int:
    """Full-batch arrays of a BER cell: transmitted and received bits, complex
    baseband, real passband, noise and noisy copy, received symbols and their
    gain-normalised copy."""
    params, scheme = a["params"], a["scheme"]
    per_frame = params.n_subcarriers * scheme.bits_per_symbol
    n = max(1, math.ceil(a["min_bits"] / per_frame))
    block = params.n_oversampled + (params.cp_oversampled if params.cp_len else 0)
    noisy = 2 if a["ebn0_db"] is not None else 0
    return (
        2 * n * per_frame
        + n * block * (_BYTES_COMPLEX + (1 + noisy) * _BYTES_FLOAT)
        + 2 * n * params.n_subcarriers * _BYTES_COMPLEX
    )


def _filter_points(a) -> int:
    samples, taps = a["samples"], a["taps"]
    n = samples.shape[-1] + taps.size - 1
    return samples.size // samples.shape[-1] * (1 << (n - 1).bit_length())


def _clip_counts(a) -> dict:
    samples = a["samples"]
    return {"samples": samples.size,
            "clipped": int(np.count_nonzero(np.abs(samples) > a["amplitude"]))}


#: Work counts per stage, from the bound arguments ``a`` and the result.
COUNTS = {
    "harness.bits": lambda a, out: {"bits": a["n_frames"] * a["bits_per_frame"]},
    "constellation.map": lambda a, out: {"symbols": a["bits"].size // a["scheme"].bits_per_symbol},
    "ofdm_chain.extend": lambda a, out: {"fft_points": a["frames"].size * a["oversample"]},
    "ofdm_chain.modulate": lambda a, out: {"fft_points": a["frames"].size},
    "clip_filter.clip": lambda a, out: _clip_counts(a),
    "ofdm_chain.upconvert": lambda a, out: {"fft_points": a["samples"].size},
    "clip_filter.composed": lambda a, out: {"fft_points": a["samples"].size},
    "harness.envelope": lambda a, out: {"fft_points": a["samples"].size},
    "metrics.papr": lambda a, out: {"values": a["power"].size // a["power"].shape[-1]},
    "metrics.ccdf": lambda a, out: {"values": np.size(a["papr_values"]) if "papr_values" in a else 0},
    "channel.awgn": lambda a, out: {"samples": a["samples"].size if a["sigma_n"] else 0},
    "harness.receive": lambda a, out: {"fft_points": a["rx_blocks"].size},
    "ofdm_chain.receive": lambda a, out: {"fft_points": _filter_points(a)},
    "ofdm_chain.demodulate": lambda a, out: {"fft_points": a["samples"].size},
    "constellation.demap": lambda a, out: {"symbols": a["symbols"].size,
                                           "scheme": a["scheme"].name},
    "fir_design.design": lambda a, out: {"designs": 1, "remez_passes": len(out.delta_history)},
    "harness.cell": lambda a, out: {
        "bytes": _papr_cell_bytes(a) if "spec" in a else _ber_cell_bytes(a)
    },
}

def extra_metrics(stage: dict) -> list[tuple[str, str]]:
    """(metric, unit) the stage reports beyond self_s, calls and share, from
    its ``counts`` in the stage table."""
    out = []
    for metric, unit in stage["counts"].items():
        if "<scheme>" in metric:
            out.extend((metric.replace("<scheme>", s), unit) for s in SCHEMES)
        else:
            out.append((metric, unit))
    return out


def metric_units(stages: list[dict]) -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for stage in stages:
        name = stage["stage"]
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
        units[f"{name}.share"] = "fraction"
        for metric, unit in extra_metrics(stage):
            units[f"{name}.{metric}"] = unit
    units["trace.overhead_ratio"] = "ratio"
    units["trace.self_share"] = "fraction"
    return units


class Tracer:
    """Installs span-recording wrappers around the stage callables."""

    def __init__(self, stages: list[dict]):
        self.stages = stages
        self.spans: list[tuple] = []  # (id, stage, start, end, self_s, parent, cell)
        self.counts: list[dict] = []  # per span, aligned with spans
        self.cell = None
        self.missing: list[str] = []
        self._stack: list[list] = []  # open spans: [id, child_seconds]
        self._next_id = 0
        self._installed: list[tuple] = []

    def install(self) -> None:
        for stage in self.stages:
            found = 0
            for path in stage["callables"]:
                module_name, attr = path.rsplit(".", 1)
                try:
                    module = importlib.import_module(f"paprsim.{module_name}")
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                setattr(module, attr, self._wrap(stage["stage"], fn))
                self._installed.append((module, attr, fn))
                found += 1
            if not found:
                self.missing.append(stage["stage"])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _wrap(self, stage: str, fn):
        count = COUNTS[stage]
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(
                    (frame[0], stage, start, end, end - start - frame[1],
                     parent[0] if parent else None, self.cell)
                )
                self.counts.append({})
                if parent is not None:
                    parent[1] += end - start
            self.counts[-1] = count(signature.bind(*args, **kwargs).arguments, out)
            if parent is not None:
                parent[1] += time.perf_counter() - end
            return out

        return wrapper

    def metrics(self, busy_s: float, cell_s: float) -> dict[str, float | None]:
        """Per-stage totals over the traced run. ``busy_s`` is the traced
        wall time of all operations, ``cell_s`` the sum of cell wall times."""
        self_s = defaultdict(float)
        calls = defaultdict(int)
        totals = defaultdict(lambda: defaultdict(float))
        demap_s = defaultdict(float)
        demap_symbols = defaultdict(int)
        in_cells = 0.0
        for span, counts in zip(self.spans, self.counts):
            _, stage, _, _, own, _, cell = span
            self_s[stage] += own
            calls[stage] += 1
            if cell is not None:
                in_cells += own
            for key, value in counts.items():
                if key != "scheme":
                    totals[stage][key] += value
            if stage == "constellation.demap":
                demap_s[counts["scheme"]] += own
                demap_symbols[counts["scheme"]] += counts["symbols"]
        out: dict[str, float | None] = {}
        for stage in self.stages:
            name = stage["stage"]
            missing = name in self.missing
            values = {
                "self_s": self_s[name],
                "calls": calls[name],
                "share": self_s[name] / busy_s if busy_s else 0.0,
            }
            for metric, _ in extra_metrics(stage):
                if metric == "clip_fraction":
                    t = totals[name]
                    values[metric] = t["clipped"] / t["samples"] if t["samples"] else 0.0
                elif metric.startswith("ns_per_symbol."):
                    scheme = metric.split(".", 1)[1]
                    n = demap_symbols[scheme]
                    values[metric] = 1e9 * demap_s[scheme] / n if n else 0.0
                else:
                    values[metric] = totals[name][metric]
            for metric, value in values.items():
                out[f"{name}.{metric}"] = None if missing else value
        out["trace.self_share"] = in_cells / cell_s if cell_s else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, stage, start, end, own, parent, cell in self.spans:
                fh.write(json.dumps({"id": span_id, "name": stage, "start": start, "end": end,
                                     "self_s": own, "parent": parent, "cell": cell}) + "\n")
