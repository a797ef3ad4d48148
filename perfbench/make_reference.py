#!/usr/bin/env python3
"""Rebuild reference.json: pooled counts for every cell the workloads produce.

Each workload's ``reference_ops`` is run at several reference seeds and the
counts are pooled: for a PAPR cell, exceedances at the CCDF grid thresholds
nearest the read point and nearest ``checks.BODY_P`` (clipped and unclipped
curves); for a BER cell, bit errors. The checks in ``checks.py`` compare a
run's counts with these.

    python3 perfbench/make_reference.py

The file records the commit it was made at. Regenerate it only when the
program's statistics are meant to change, and say so.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
from paprsim import run_ber_experiment, run_papr_experiment  # noqa: E402

import checks  # noqa: E402
import meta  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Reference seeds per workload: enough pooled symbols or bits that the
#: reference's own sampling error is a fraction of a run's.
REPEATS = {"papr_ccdf": 4, "ber_sweep": 4, "small_specs": 10}
SEED_BASE = 1_000_000


def _pooled_points(counts: np.ndarray, n: int, thresholds: np.ndarray, p: float) -> list[dict]:
    """The grid thresholds whose pooled probability is nearest ``p`` and
    nearest ``checks.BODY_P``, with their counts."""
    prob = counts / n
    usable = np.flatnonzero(prob > 0)
    points = []
    for target in (p, checks.BODY_P):
        i = usable[np.argmin(np.abs(np.log(prob[usable] / target)))]
        points.append({"threshold_db": float(thresholds[i]), "k": int(counts[i]), "n": int(n)})
    return points


def build(name: str) -> dict:
    workload = WORKLOADS[name]
    papr: dict = {}
    ber: dict = {}
    for r in range(REPEATS[name]):
        t0 = time.perf_counter()
        for op in workload.reference_ops(SEED_BASE + r):
            if op.kind == "papr":
                result = run_papr_experiment(op.spec)
                for (key, _), row in zip(op.cells(), result.rows):
                    curves = result.curves[(row.scheme, row.cr)]
                    entry = papr.setdefault(key, {"p": op.spec.ccdf_read_point})
                    for which in ("clipped", "unclipped"):
                        curve = getattr(curves, which)
                        counts = np.rint(curve.prob_exceed * curve.sample_count).astype(np.int64)
                        acc = entry.setdefault(which, {"counts": 0, "n": 0, "t": curve.thresholds_db})
                        acc["counts"] = acc["counts"] + counts
                        acc["n"] += curve.sample_count
            elif op.kind == "ber":
                result = run_ber_experiment(op.spec)
                for (key, _), row in zip(op.cells(), result.rows):
                    k, n = ber.get(key, (0, 0))
                    ber[key] = (k + row.bit_errors, n + row.bits_total)
        print(f"{name}: seed {r + 1}/{REPEATS[name]} in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    out = {}
    for key, entry in papr.items():
        out[key] = {
            which: _pooled_points(entry[which]["counts"], entry[which]["n"], entry[which]["t"], entry["p"])
            for which in ("clipped", "unclipped")
        }
    for key, (k, n) in ber.items():
        out[key] = {"k": int(k), "n": int(n)}
    return out


def main() -> int:
    ref = {"cells": {}}
    for name in sorted(WORKLOADS):
        ref["cells"].update(build(name))
    ref["made_at"] = meta.git_sha()
    ref["repeats"] = REPEATS
    ref["alpha"] = checks.ALPHA
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
