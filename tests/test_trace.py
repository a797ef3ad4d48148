"""The benchmark's tracer binds every stage of its table.

The traced run of ``perfbench/run.py`` wraps the module-level names that
``perfbench/interactions.json`` lists, and ``perfbench/spans.py::COUNTS``
reads their arguments by parameter name, so a stage name or a parameter
renamed in the library breaks only the traced run. This test runs the
tracer once over a small pipeline. It imports ``spans`` from ``perfbench/``
as ``tools/op_rusage.py`` imports ``workloads``, and writes nothing there.
"""
import sys
from pathlib import Path

from paprsim import (
    ExperimentSpec,
    ModScheme,
    OfdmParams,
    run_ber_experiment,
    run_papr_experiment,
    simulate_chain_ber,
)
from paprsim import harness

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from spans import Tracer, load_stages  # noqa: E402

# Bound in harness.py but not called by the bin-domain pipeline.
UNCALLED = {"ofdm_chain.upconvert", "channel.awgn", "harness.receive", "ofdm_chain.receive",
            "ofdm_chain.demodulate"}


def test_the_tracer_binds_and_counts_every_stage_the_pipeline_runs(monkeypatch):
    # The tracer keeps one span stack for all threads.
    monkeypatch.setattr(harness, "_worker_count", lambda: 1)
    harness._design_hpf.cache_clear()  # so that the design runs traced
    spec = ExperimentSpec(schemes=(ModScheme.from_name("qpsk"), ModScheme.from_name("16qam")),
                          cr_values=(1.0,), n_symbols=1000, ebn0_grid_db=(8.0,),
                          bits_per_point=20_000, ccdf_read_point=1e-2)
    tracer = Tracer(load_stages())
    tracer.install()
    try:
        run_papr_experiment(spec)
        run_ber_experiment(spec)
        simulate_chain_ber(OfdmParams(), ModScheme.from_name("8psk"), min_bits=2000, seed=1)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    stages = {stage["stage"] for stage in tracer.stages}
    assert UNCALLED < stages
    assert {span[1] for span in tracer.spans} == stages - UNCALLED
