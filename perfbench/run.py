#!/usr/bin/env python3
"""paprsim benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload papr_ccdf --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25   # each workload in a fresh process

With ``--trace 0`` the workload runs as a closed loop of round(seconds /
step_seconds) steps (see ``workloads.py``): the same work on every commit,
lasting about ``--seconds`` on the machine the benchmark was defined on. The
end-to-end metrics are reported. With ``--trace 1`` the workload's fixed
trace prefix runs twice in this process, untraced and then traced with the
layer caches cleared in between, and the per-layer metrics are reported.

Every cell is checked against ``reference.json`` (see ``checks.py``). Human
readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. Run
metadata, per-cell problems and the results digest go to the line before it
and to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import pickle
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 21
NAMES = ("papr_ccdf", "ber_sweep", "small_specs")

#: Cells known to fail their check at the commit the benchmark was defined
#: at, by key prefix. They still count in ``failed``; ``correct`` turns false
#: only for a failure not listed here.
KNOWN_FAILURES = {
    "p00/loopback/": "band edge at Nyquist (f_c + BW/2 = fs/2) is accepted but the "
    "noiseless loopback has bit errors; ROADMAP item 2",
    "p18/loopback/": "N=128, L=12, f_c=4.75 MHz: the 2 f_c image aliases to 2.5 MHz, inside "
    "the image-reject low-pass's transition band; noiseless loopback has bit errors",
    **{
        f"{plan}/ber/": "the clipped BER run's bits are coin flips (BER 1/2 at every Eb/N0) on "
        "this plan; f_c is 4.75 to 6.75 MHz, the cause is not yet known; ROADMAP item 2"
        for plan in ("p02", "p13", "p14", "p18", "p25", "p30", "p32", "p39")
    },
}


def known_failure(key: str) -> bool:
    return any(key.startswith(prefix) for prefix in KNOWN_FAILURES)


PROBE = """
import dataclasses, os, pickle, sys
sys.path.insert(0, sys.argv[1])
import paprsim
kind, spec = pickle.loads(sys.stdin.buffer.read())
spec = dataclasses.replace(spec)  # validated again, as a user's spec would be
def ready(_message):
    sys.stdout.write("ready\\n")
    sys.stdout.flush()
    os._exit(0)
run = paprsim.run_papr_experiment if kind == "papr" else paprsim.run_ber_experiment
run(spec, progress=ready)
os._exit(3)
"""


@dataclass
class Cell:
    key: str
    symbols: int
    seconds: float
    problems: list[str] = field(default_factory=list)


@dataclass
class OpResult:
    wall: float
    cells: list[Cell]
    outputs: list[tuple]  # (cell key, exact outputs) for the digest


def execute(op, reference: dict, on_cell=None) -> OpResult:
    """Run one operation, time its cells from the harness's progress
    callback, and check every cell's output."""
    import paprsim
    from checks import check_ber_cell, check_loopback, check_papr_cell

    expected = list(op.cells())
    if op.kind == "rejected":
        return OpResult(0.0, [Cell(expected[0][0], 0, 0.0, [op.error])], [])
    marks: list[float] = []

    def progress(_message):
        marks.append(time.perf_counter())
        if on_cell:
            on_cell(expected[len(marks) - 1][0])

    start = time.perf_counter()
    error = None
    try:
        if op.kind == "papr":
            result = paprsim.run_papr_experiment(op.spec, progress=progress)
        elif op.kind == "ber":
            result = paprsim.run_ber_experiment(op.spec, progress=progress)
        else:
            progress(None)
            result = paprsim.simulate_chain_ber(
                op.params, op.scheme, min_bits=op.min_bits, seed=op.seed
            )
    except Exception as exc:  # a raising operation is a failed operation, not a crash
        error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if on_cell:
        on_cell(None)
    times = [b - a for a, b in zip(marks, marks[1:] + [end])]
    if error is not None:
        times = times or [end - start]  # raised before its first cell started
        cells = [Cell(key, n, t, [error]) for (key, n), t in zip(expected, times)]
        return OpResult(end - start, cells, [])

    cells, outputs = [], []
    if op.kind == "loopback":
        errors, total = result
        (key, n), = expected
        cells.append(Cell(key, n, times[0], check_loopback(errors, total)))
        outputs.append((key, errors, total))
        return OpResult(end - start, cells, outputs)
    for (key, n), t, row in zip(expected, times, result.rows):
        ref = reference.get(key)
        if ref is None:
            problems = [f"no reference for {key}"]
        elif op.kind == "papr":
            problems = check_papr_cell(ref, row, result.curves[(row.scheme, row.cr)])
        else:
            scheme = next(s for s in op.spec.schemes if s.name == row.scheme)
            problems = check_ber_cell(ref, row.bit_errors, row.bits_total, scheme.bits_per_symbol)
        cells.append(Cell(key, n, t, problems))
        if op.kind == "papr":
            outputs.append((key, row.papr_db_clipped_filtered, row.papr_db_unclipped))
        else:
            outputs.append((key, row.bit_errors, row.bits_total))
    return OpResult(end - start, cells, outputs)


def setup_payload(ops) -> bytes:
    """What a set-up probe runs: the run's first experiment call (a refused
    plan or a loopback has no progress callback to time)."""
    op = next((op for op in ops if op.kind in ("papr", "ber")), None)
    if op is None:
        raise RuntimeError("the run has no experiment call whose set-up could be timed")
    return pickle.dumps((op.kind, op.spec))


def measure_setup(payload: bytes) -> float:
    """One fresh-process set-up time: from process launch to the first
    cell's progress callback, covering import, spec validation and the
    high-pass design."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE, str(SRC)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        proc.stdin.write(payload)
        proc.stdin.close()
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if line.strip() != b"ready":
        raise RuntimeError(f"set-up probe exited with code {proc.returncode} before the first cell")
    return elapsed


def run_steps(ops, reference: dict) -> tuple[list[OpResult], float]:
    """The operations back to back; returns results and busy time."""
    results = [execute(op, reference) for op in ops]
    return results, sum(r.wall for r in results)


def tail(values: list[float]) -> tuple[float, int]:
    """Value at the highest percentile with at least ten samples beyond it,
    and that percentile; the median (50) when there are fewer than 20."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50
    return ordered[n - 11], int(100 * (n - 10) / n)


def _clear_caches() -> None:
    """Empty the program's lru caches so a pass starts as cold as a fresh
    process would."""
    import paprsim.constellation
    import paprsim.ofdm_chain

    for fn in (getattr(paprsim.ofdm_chain, "image_reject_lowpass", None),
               getattr(paprsim.constellation, "_table_cached", None)):
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def _digest(results: list[OpResult]) -> tuple[str, int]:
    """SHA-256 over every cell output in run order, in exact repr form."""
    outputs = [o for r in results for o in r.outputs]
    return hashlib.sha256(repr(outputs).encode()).hexdigest(), len(outputs)


def _known_red(results: list[OpResult]) -> list[str]:
    """8-QAM vs 8-PSK at CR 0.8 (test_04): reported, never gated."""
    ber = {o[0]: o[1] / o[2] for r in results for o in r.outputs if "/ber/" in o[0]}
    lines = []
    for key, value in sorted(ber.items()):
        plan, _, scheme, cr, ebn0 = key.split("/")
        twin = f"{plan}/ber/8psk/{cr}/{ebn0}"
        if scheme == "8qam" and cr == "0.8" and twin in ber and value > ber[twin]:
            lines.append(f"known red (not gated): {key} BER {value:.5f} > 8psk {ber[twin]:.5f}")
    return lines


def end_to_end(workload, seed: int, seconds: float, reference: dict):
    steps = max(1, round(seconds / workload.step_seconds))
    ops = workload.run_ops(seed, steps)
    payload = setup_payload(ops)
    # The set-up probes are spread evenly between the operations, so that
    # they see the same machine as the timed operations do.
    setup, results = [], []
    for i, op in enumerate(ops):
        while len(setup) < math.ceil(SETUP_PROBES * (i + 1) / len(ops)):
            setup.append(measure_setup(payload))
        results.append(execute(op, reference))
    busy = sum(r.wall for r in results)
    cells = [c for r in results for c in r.cells]
    done = [c for r in results if r.outputs for c in r.cells]
    cell_times = [c.seconds for c in cells]
    tail_s, tail_pct = tail(cell_times)
    failed = sum(1 for c in cells if c.problems)
    metrics = {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh-process probes spread over the run"),
        "ofdm_symbols_per_s": (sum(c.symbols for c in done) / busy, "symbols/s",
                               f"{sum(c.symbols for c in done)} symbols in {busy:.2f} s, {len(results)} ops"),
        "cell_s_p50": (statistics.median(cell_times), "s", f"{len(cell_times)} cells"),
        "cell_s_tail": (tail_s, "s", f"p{tail_pct} of {len(cell_times)} cells"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "ru_maxrss of this process"),
        "ok_ratio": (1.0 - failed / len(cells), "fraction",
                     f"{len(cells) - failed} of {len(cells)} operations passed; failed_ratio "
                     f"{failed / len(cells):.6f}"),
    }
    return results, cells, metrics, {"tail_percentile": tail_pct, "busy_s": busy, "steps": steps}


def traced(workload, seed: int, reference: dict):
    from spans import Tracer, load_stages

    ops = workload.run_ops(seed, workload.trace_steps)
    _clear_caches()
    plain, plain_s = run_steps(ops, reference)
    _clear_caches()
    tracer = Tracer(load_stages())
    tracer.install()

    def enter(key):
        tracer.cell = key

    try:
        results = [execute(op, reference, on_cell=enter) for op in ops]
    finally:
        tracer.uninstall()
    busy = sum(r.wall for r in results)
    cell_s = sum(c.seconds for r in results for c in r.cells)
    values = tracer.metrics(busy, cell_s)
    values["trace.overhead_ratio"] = busy / plain_s
    cells = [c for r in results for c in r.cells]
    extra = {
        "untraced_s": plain_s, "traced_s": busy, "cell_s": cell_s, "steps": workload.trace_steps,
        "missing_stages": tracer.missing,
        "untraced_digest": _digest(plain)[0],
    }
    return results, cells, values, extra, tracer


def run_workload(workload, seed: int, seconds: float, trace: bool, out=print) -> dict:
    """Run one workload and return the result object printed last."""
    import checks
    import meta

    reference = checks.load_reference()["cells"]
    info = meta.run_info(seed)
    info.update(workload=workload.name, seconds=seconds, trace=int(trace))
    if trace:
        from spans import metric_units, load_stages

        results, cells, values, extra, tracer = traced(workload, seed, reference)
        units = metric_units(load_stages())
        metrics = {name: (values[name], unit, "") for name, unit in units.items()}
    else:
        results, cells, metrics, extra = end_to_end(workload, seed, seconds, reference)
        tracer = None
    digest, digest_cells = _digest(results)
    info.update(extra, results_digest=digest, digest_cells=digest_cells)
    problems = [(c.key, c.problems) for c in cells if c.problems]
    unexpected = sorted({key for key, _ in problems if not known_failure(key)})
    if trace and info["untraced_digest"] != digest:
        unexpected.append("traced and untraced passes gave different outputs")
    correct = not unexpected

    for key, lines in problems:
        tag = "known failure" if known_failure(key) else "FAILED"
        out(f"{tag}: {key}: {'; '.join(lines)}")
    for line in _known_red(results):
        out(line)
    if trace:
        shares = sorted(((v[0], k[: -len(".share")]) for k, v in metrics.items()
                         if k.endswith(".share") and v[0]), reverse=True)
        out("largest stages by self-time share: "
            + ", ".join(f"{stage} {100 * share:.1f} %" for share, stage in shares[:6]))
    for name, (value, unit, note) in metrics.items():
        shown = "missing" if value is None else f"{value:.6g} {unit}"
        out(f"{workload.name} {name} = {shown}" + (f"  ({note})" if note else ""))
    result = {
        "correct": correct,
        "attempted": len(cells),
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"run_info": info, "problems": problems, "result": result,
                   "ops": [{"wall": r.wall, "cells": [(c.key, c.symbols, c.seconds) for c in r.cells]}
                           for r in results]}, fh)
    if tracer is not None:
        tracer.write_spans(RESULTS / f"{stem}-spans.jsonl")
    out(json.dumps({"run_info": info}))
    return result


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in a fresh process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="paprsim benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "paprsim" / "__init__.py").is_file():
        print(f"error: no paprsim sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import paprsim

    if Path(paprsim.__file__).resolve().parent != SRC / "paprsim":
        print(f"error: imported paprsim from {paprsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        from workloads import WORKLOADS

        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
