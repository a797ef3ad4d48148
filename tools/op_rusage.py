"""Replay a benchmark workload's operations in this process and report what
they cost the process: wall, user and system time, minor page faults,
voluntary and involuntary context switches (``ru_nvcsw``, ``ru_nivcsw``),
the library's helper threads started, the seconds spent drawing bits
(``harness._random_bits``) and drawing BER units' normals
(``harness._unit_normals``), the 8-, 16- and 32-PSK symbols the measured
rounds sliced and how many of them took the exact near-boundary path,
and peak RSS, numbers that ``perfbench/run.py`` does not report. With
``--stages`` it also prints the seconds a round spends in each stage
name of the harness (``STAGES``) and the milliseconds a call.

The operations are those ``perfbench/workloads.py`` builds for the first
``--steps`` steps (default: the workload's traced prefix) at ``--seed``.
One unmeasured round runs them first, so imports, FFT plans and the
library's caches are warm; then each of ``--rounds`` rounds runs them all
once, and the median round is printed, in total and per operation.
For the experiments among the operations it also prints, per scheme,
the median time of a unit's first cell and of its later cells, each
timed from the cell's progress call to the next one or to the end of its
experiment, over all measured rounds. A PAPR unit is a scheme: its first
CR cell runs the pass that every CR of the scheme shares, and its later
CR cells only read their curves. A BER unit is a (scheme, CR) pair: its
first cell runs the unit's transmit and its first Eb/N0 point.
Results are not checked; ``perfbench/run.py`` does that.

Usage: python tools/op_rusage.py WORKLOAD [--steps S] [--rounds K] [--seed N] [--stages]

The library uses every CPU the process may run on, so
``taskset -c 0 python tools/op_rusage.py ber_sweep`` measures one CPU.
Helper threads are counted by wrapping ``threading.Thread.start`` in this
process for threads named ``paprsim-runner*``, draws by wrapping
``harness._random_bits`` and ``harness._unit_normals`` (seconds summed over
the threads that drew; a unit's normals are drawn beside its transmit
chunks on two or more CPUs), stages by wrapping each name of ``STAGES``
in the same way, and PSK symbols by wrapping
``constellation._psk_labels`` (orders above 4) and
``constellation._boundary_decisions``. A stage's seconds include the
time it waits for the interpreter lock while another thread runs, so
they are exact only on one CPU: ``taskset -c 0 python tools/op_rusage.py
papr_ccdf --stages``. A stage's seconds include those of any stage it
calls; none of ``STAGES`` calls another, but the unclipped envelope of a
plan with a band edge on DC or Nyquist (``harness._envelope``) is in
none of them.
"""
from __future__ import annotations

import argparse
import os
import resource
import statistics
import sys
import threading
import time
from collections import ChainMap, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import paprsim  # noqa: E402
from paprsim import constellation, harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


#: The harness's stage names that ``--stages`` times: a PAPR chunk calls
#: each, a clipped BER chunk the first six.
STAGES = ("_random_bits", "_map_rows", "_extend_rows", "_modulate_rows", "_clip_magnitude_rows",
          "_composed_rows", "_filter_inverse", "envelope_magnitude", "_papr_db_rows")


class CellClock:
    """An experiment's ``progress`` callback that times each cell from its
    call to the next one, or to ``stop``, and keeps the times by (kind,
    scheme): ``first`` for a unit's first cell, ``later`` for its other
    cells. A PAPR unit is a scheme ("papr SCHEME cr=CR"), a BER unit a
    (scheme, CR) pair ("ber SCHEME cr=CR ebn0=E dB")."""

    def __init__(self):
        self.first, self.later = defaultdict(list), defaultdict(list)
        self._open = self._unit = None

    def __call__(self, cell: str) -> None:
        now = time.perf_counter()
        self._close(now)
        self._open = (cell, now)

    def stop(self) -> None:
        """End the experiment: its open cell, if any, ends now, and the
        next experiment's first cell starts a unit."""
        self._close(time.perf_counter())
        self._unit = None

    def _close(self, now: float) -> None:
        if self._open is None:
            return
        (cell, start), self._open = self._open, None
        kind, scheme, cr, *_ = cell.split()
        unit = (kind, scheme) if kind == "papr" else (kind, scheme, cr)
        times = self.later if unit == self._unit else self.first
        times[(kind, scheme)].append(now - start)
        self._unit = unit


def run(op, clock: CellClock | None = None) -> bool:
    """Run one operation, timing its cells on ``clock`` if given; False if
    the program refused or failed it."""
    experiments = {"papr": paprsim.run_papr_experiment, "ber": paprsim.run_ber_experiment}
    try:
        if op.kind in experiments:
            try:
                experiments[op.kind](op.spec, progress=clock)
            finally:
                if clock is not None:
                    clock.stop()
        elif op.kind == "loopback":
            paprsim.simulate_chain_ber(op.params, op.scheme, min_bits=op.min_bits, seed=op.seed)
        else:
            return False
    except paprsim.PaprSimError:
        return False
    return True


def count_helper_starts() -> list[int]:
    """Wrap ``threading.Thread.start`` in this process; returns a one-item
    list that counts the starts of threads named ``paprsim-runner*``."""
    starts, start = [0], threading.Thread.start

    def counted(thread):
        if thread.name.startswith("paprsim-runner"):
            starts[0] += 1
        start(thread)

    threading.Thread.start = counted
    return starts


def time_calls(keys: dict[str, str]) -> tuple[dict[str, float], dict[str, int]]:
    """Wrap each ``harness`` function named by a key of ``keys`` in this
    process; returns two dicts keyed by the values of ``keys``: the seconds
    spent in each function, summed over the threads that called it, and
    its calls."""
    seconds, calls = dict.fromkeys(keys.values(), 0.0), dict.fromkeys(keys.values(), 0)
    lock = threading.Lock()

    def timed(key: str, function):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                with lock:
                    seconds[key] += time.perf_counter() - start
                    calls[key] += 1

        return wrapper

    for name, key in keys.items():
        setattr(harness, name, timed(key, getattr(harness, name)))
    return seconds, calls


def time_draws() -> dict[str, float]:
    """Wrap ``harness._random_bits`` and ``harness._unit_normals`` in this
    process; returns a dict of the seconds spent in each, ``bits_s`` and
    ``normals_s``, summed over the threads that drew."""
    return time_calls({"_random_bits": "bits_s", "_unit_normals": "normals_s"})[0]


def count_psk_symbols() -> dict[str, int]:
    """Wrap ``constellation._psk_labels`` and ``_boundary_decisions`` in
    this process; returns a dict that counts the 8-, 16- and 32-PSK symbols
    sliced (``psk_sliced``) and those decided by their exact side of a
    boundary (``psk_near_boundary``), on any thread."""
    counts, lock = {"psk_sliced": 0, "psk_near_boundary": 0}, threading.Lock()
    psk_labels, boundary_decisions = constellation._psk_labels, constellation._boundary_decisions

    def add(name: str, n: int) -> None:
        with lock:
            counts[name] += n

    def counted_labels(parts, order, work):
        if order > 4:
            add("psk_sliced", parts.size // 2)
        return psk_labels(parts, order, work)

    def counted_decisions(x, y, whole, order):
        add("psk_near_boundary", x.size)
        return boundary_decisions(x, y, whole, order)

    constellation._psk_labels = counted_labels
    constellation._boundary_decisions = counted_decisions
    return counts


def measure(ops, helper_starts: list[int], timed: dict[str, float],
            clock: CellClock | None = None) -> tuple[dict, int]:
    """One round over ``ops``: its wall, user and system seconds, minor
    page faults, voluntary and involuntary context switches, helper
    threads started (``helper_starts``, from ``count_helper_starts``) and
    the seconds of each timed function (``timed``: the draws of
    ``time_draws`` and any stages of ``time_calls``), and how many
    operations failed. Cells are timed on ``clock``."""
    before_timed, starts = dict(timed), helper_starts[0]
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    failed = sum(not run(op, clock) for op in ops)
    wall, after = time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF)
    return {
        "wall_s": wall,
        "user_s": after.ru_utime - before.ru_utime,
        "system_s": after.ru_stime - before.ru_stime,
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "nvcsw": after.ru_nvcsw - before.ru_nvcsw,
        "nivcsw": after.ru_nivcsw - before.ru_nivcsw,
        "helper_starts": helper_starts[0] - starts,
        **{name: timed[name] - before_timed[name] for name in timed},
    }, failed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=31001)
    parser.add_argument("--stages", action="store_true",
                        help="also time each stage name of the harness (STAGES)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    steps = workload.trace_steps if args.steps is None else args.steps
    if steps < 1 or args.rounds < 1:
        parser.error("--steps and --rounds must be at least 1")
    ops = workload.run_ops(args.seed, steps)
    helper_starts, draws = count_helper_starts(), time_draws()
    stages, calls = time_calls({name: name for name in STAGES if args.stages})
    timed = ChainMap(draws, stages)
    measure(ops, helper_starts, timed)  # warm-up round
    clock, psk_counts = CellClock(), count_psk_symbols()
    rounds = [measure(ops, helper_starts, timed, clock) for _ in range(args.rounds)]
    failed = rounds[0][1]
    print(f"{args.workload}: {len(ops)} operations a round ({failed} failed), seed {args.seed}, "
          f"{args.rounds} rounds after one warm-up, {len(os.sched_getaffinity(0))} CPUs")
    for name in ("wall_s", "user_s", "system_s", "minor_faults", "nvcsw", "nivcsw",
                 "helper_starts", "bits_s", "normals_s"):
        median = statistics.median(r[name] for r, _ in rounds)
        low, high = min(r[name] for r, _ in rounds), max(r[name] for r, _ in rounds)
        print(f"  {name:<13} median {median:>10.6g} a round [{low:.6g}, {high:.6g}], "
              f"{median / len(ops):.6g} an operation")
    print(f"  psk_symbols   {psk_counts['psk_sliced']} sliced at orders 8-32 in the "
          f"{args.rounds} rounds, {psk_counts['psk_near_boundary']} of them near a boundary")
    if stages:
        print("  stage                  median ms a round [min, max]    calls a round  ms a call")
    for name in stages:
        median = statistics.median(r[name] for r, _ in rounds)
        low, high = min(r[name] for r, _ in rounds), max(r[name] for r, _ in rounds)
        # Every round, the warm-up too, runs the same operations.
        per_round = calls[name] / (args.rounds + 1)
        print(f"    {name:<20} {1e3 * median:10.3f} [{1e3 * low:.3f}, {1e3 * high:.3f}]"
              f"  {per_round:13.6g}  {1e3 * median / per_round if per_round else 0.0:9.4f}")
    # ru_maxrss is in KiB on Linux.
    print(f"  max_rss_mb    {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.2f}")
    for kind, unit in (("papr", "a scheme's first CR cell, its later CR cells"),
                       ("ber", "a (scheme, CR) unit's first cell, its later points")):
        keys = [key for key in clock.first if key[0] == kind]
        if keys:
            print(f"  {kind.upper()} cells, median ms (cells timed): {unit}")
        for key in keys:
            first, later = clock.first[key], clock.later[key]
            print(f"    {key[1]:<6} first {1e3 * statistics.median(first):8.3f} ({len(first)})"
                  + (f"  later {1e3 * statistics.median(later):7.3f} ({len(later)})"
                     if later else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
