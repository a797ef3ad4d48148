"""Per-cell correctness checks against reference counts from sampling error.

A PAPR cell is checked by its exceedance counts: at a fixed CCDF grid
threshold the reference pooled K exceedances out of N symbols, and the cell
must show k out of n consistent with the same probability. Each curve is
checked at two thresholds: the one nearest the read point, where the
quantile is read, and one in the body of the distribution (reference
probability near ``BODY_P``), where K is in the thousands, so that a PAPR
that comes out too low is rejected even though the read point's own count
is too small to show it. A BER cell is
checked the same way on bit errors. Both use the two-sample test for rare
events: conditional on T = k + K, k is Binomial(T, n / (n + N)), summed
exactly for small T and by the normal approximation once its variance
exceeds 50. The test is two-sided at ALPHA per check, so the tolerance is
the sampling error of both counts and nothing else.

Bit errors are not independent: one symbol error flips between 1 and
log2(M) bits, which inflates the variance of a bit-error count by at most
log2(M). BER counts are therefore divided by log2(M) before the test, which
bounds that inflation instead of guessing it. A BER cell whose error rate
is indistinguishable from 1/2 fails as well, whatever the reference says:
the receiver is guessing.

Byte identity with the reference is not required, because changes that
alter random draws are legitimate; the run's ``results_digest`` records the
exact outputs so that changes claiming exact maths can show it.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

ALPHA = 1e-6
BODY_P = 0.25
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _binom_tail_p(k: int, total: int, pi: float) -> float:
    """Two-sided p-value of k under Binomial(total, pi): twice the smaller tail."""
    var = total * pi * (1.0 - pi)
    if var >= 50.0:
        # Normal approximation with continuity correction; skew is negligible here.
        z = max(abs(k - total * pi) - 0.5, 0.0) / math.sqrt(var)
        return math.erfc(z / math.sqrt(2.0))
    log_pi, log_q = math.log(pi), math.log1p(-pi)
    lg = math.lgamma(total + 1)
    pmf = [
        math.exp(lg - math.lgamma(i + 1) - math.lgamma(total - i + 1) + i * log_pi + (total - i) * log_q)
        for i in range(total + 1)
    ]
    lower = sum(pmf[: k + 1])
    upper = sum(pmf[k:])
    return min(1.0, 2.0 * min(lower, upper))


def counts_agree(k: int, n: int, ref_k: int, ref_n: int, dispersion: float = 1.0) -> bool:
    """True when k events in n trials match ref_k in ref_n at level ALPHA."""
    k_eff = round(k / dispersion)
    ref_eff = round(ref_k / dispersion)
    total = k_eff + ref_eff
    if total == 0:
        return True
    return _binom_tail_p(k_eff, total, n / (n + ref_n)) > ALPHA


def exceedances(curve, threshold_db: float) -> int | None:
    """Exceedance count of a CCDF curve at one of its grid thresholds."""
    hits = np.flatnonzero(np.isclose(curve.thresholds_db, threshold_db, rtol=0, atol=1e-9))
    if hits.size != 1:
        return None
    return int(round(float(curve.prob_exceed[hits[0]]) * curve.sample_count))


def check_papr_cell(ref: dict, row, curves) -> list[str]:
    """Problems with one PAPR cell (empty when it passes)."""
    problems = []
    if not row.papr_db_clipped_filtered < row.papr_db_unclipped:
        problems.append(
            f"clipped quantile {row.papr_db_clipped_filtered:.4f} dB is not below "
            f"unclipped {row.papr_db_unclipped:.4f} dB"
        )
    for which, curve in (("clipped", curves.clipped), ("unclipped", curves.unclipped)):
        for r in ref[which]:
            k = exceedances(curve, r["threshold_db"])
            if k is None:
                problems.append(f"{which}: reference threshold {r['threshold_db']} dB not on the CCDF grid")
            elif not counts_agree(k, curve.sample_count, r["k"], r["n"]):
                problems.append(
                    f"{which}: {k}/{curve.sample_count} above {r['threshold_db']:.2f} dB, "
                    f"reference {r['k']}/{r['n']}"
                )
    return problems


def check_ber_cell(ref: dict, errors: int, total: int, bits_per_symbol: int) -> list[str]:
    problems = []
    k_eff, n_eff = round(errors / bits_per_symbol), round(total / bits_per_symbol)
    if _binom_tail_p(k_eff, n_eff, 0.5) > ALPHA:
        problems.append(f"{errors}/{total} bit errors: indistinguishable from guessing")
    if not counts_agree(errors, total, ref["k"], ref["n"], dispersion=bits_per_symbol):
        problems.append(f"{errors}/{total} bit errors, reference {ref['k']}/{ref['n']}")
    return problems


def check_loopback(errors: int, total: int) -> list[str]:
    return [] if errors == 0 else [f"noiseless loopback: {errors} bit errors in {total} bits"]
