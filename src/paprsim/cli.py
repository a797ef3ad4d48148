"""Command-line front end: parse a config file, run experiments, write CSVs.

Config format: one ``key = value`` assignment per line, ``#`` starts a
comment, blank lines ignored. Lists are comma separated. Each key sets the
field of the same name of ``OfdmParams``, ``ExperimentSpec`` or
``RunConfig`` (``_KEYS``), whose checks validate it; an unknown key is
refused. Every key is optional: an absent key takes its field's default,
so an empty file runs the reference parameter set end to end. See
configs/reference.cfg for a fully annotated example and the README for the
key table.

Exit codes: 0 success, 1 configuration problem, 2 runtime failure,
3 output I/O failure.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from itertools import groupby
from pathlib import Path

from .constellation import ModScheme
from .errors import ConfigError, PaprSimError
from .harness import (
    ExperimentSpec,
    emit_csv,
    run_ber_experiment,
    run_papr_experiment,
    write_ber_curve_csv,
    write_ccdf_csv,
)
from .ofdm_chain import OfdmParams, _is_int

_EXPERIMENT_KINDS = ("papr", "ber", "both")


@dataclass(frozen=True)
class RunConfig:
    """Validated run description: what to simulate and where to write."""

    experiment: str = "both"
    spec: ExperimentSpec = ExperimentSpec()
    output_dir: Path = Path("results")
    write_curves: bool = True
    verbosity: int = 1

    def __post_init__(self):
        if not isinstance(self.spec, ExperimentSpec):
            raise ConfigError(f"spec must be an ExperimentSpec, got {self.spec!r}")
        if not isinstance(self.output_dir, Path):
            raise ConfigError(f"output_dir must be a Path, got {self.output_dir!r}")
        if not isinstance(self.write_curves, bool):
            raise ConfigError(f"write_curves must be a bool, got {self.write_curves!r}")
        if self.experiment not in _EXPERIMENT_KINDS:
            raise ConfigError(
                f"experiment must be one of {_EXPERIMENT_KINDS}, got {self.experiment!r}"
            )
        if not (_is_int(self.verbosity) and 0 <= self.verbosity <= 2):
            raise ConfigError(f"verbosity must be 0, 1 or 2, got {self.verbosity!r}")


def _scalar(kind):
    """Parser of one ``kind`` value; a bool reads true/yes/1/on or false/no/0/off."""
    def parse(key: str, raw: str):
        try:
            if kind is bool:
                lowered = raw.lower()
                if lowered in ("true", "yes", "1", "on"):
                    return True
                if lowered in ("false", "no", "0", "off"):
                    return False
                raise ValueError(raw)
            return kind(raw)
        except ValueError:
            raise ConfigError(f"{key} must be a {kind.__name__}, got {raw!r}") from None
    return parse


def _list(kind):
    """Parser of a non-empty comma-separated list of ``kind`` values, as a tuple."""
    item = _scalar(kind)

    def parse(key: str, raw: str):
        items = [part.strip() for part in raw.split(",") if part.strip()]
        if not items:
            raise ConfigError(f"{key} must be a non-empty comma-separated list")
        return tuple(item(key, part) for part in items)
    return parse


def _read_key_values(path: Path) -> dict[str, str]:
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
        if key in pairs:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


#: Every config key: the dataclass whose field of the same name it sets,
#: and the parser of its value. A key left out takes that field's default.
_KEYS = {
    "experiment": (RunConfig, _scalar(str.lower)),
    "schemes": (ExperimentSpec, _list(ModScheme.from_name)),
    "n_subcarriers": (OfdmParams, _scalar(int)),
    "oversample": (OfdmParams, _scalar(int)),
    "bandwidth_hz": (OfdmParams, _scalar(float)),
    "carrier_hz": (OfdmParams, _scalar(float)),
    "cp_len": (OfdmParams, _scalar(int)),
    "cr_values": (ExperimentSpec, _list(float)),
    "ccdf_read_point": (ExperimentSpec, _scalar(float)),
    "n_symbols": (ExperimentSpec, _scalar(int)),
    "ebn0_grid_db": (ExperimentSpec, _list(float)),
    "bits_per_point": (ExperimentSpec, _scalar(int)),
    "seed": (ExperimentSpec, _scalar(int)),
    "hpf_num_taps": (ExperimentSpec, _scalar(int)),
    "hpf_stop_edge": (ExperimentSpec, _scalar(float)),
    "hpf_pass_edge": (ExperimentSpec, _scalar(float)),
    "output_dir": (RunConfig, _scalar(Path)),
    "write_curves": (RunConfig, _scalar(bool)),
    "verbosity": (RunConfig, _scalar(int)),
}


def parse_config(path) -> RunConfig:
    """Load and fully validate a config file. Keys are read in file order,
    and an unknown key is refused; the dataclasses' defaults fill absent
    keys and their own checks validate the values."""
    kwargs = {OfdmParams: {}, ExperimentSpec: {}, RunConfig: {}}
    for key, raw in _read_key_values(Path(path)).items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        target, parse = _KEYS[key]
        kwargs[target][key] = parse(key, raw)
    # sample_hz is always bandwidth * oversample
    spec = ExperimentSpec(params=OfdmParams(**kwargs[OfdmParams]), **kwargs[ExperimentSpec])
    return RunConfig(spec=spec, **kwargs[RunConfig])


def _cr_tag(cr: float) -> str:
    return f"{cr:g}".replace(".", "p")


def _run_and_write(cfg: RunConfig) -> list[Path]:
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    progress = (lambda msg: print(f"  running {msg}", file=sys.stderr)) if cfg.verbosity > 1 else None
    written: list[Path] = []

    if cfg.experiment in ("papr", "both"):
        result = run_papr_experiment(cfg.spec, progress=progress)
        written.append(emit_csv(result.rows, out / "papr_table.csv"))
        if cfg.write_curves:
            for (scheme, cr), curves in result.curves.items():
                tag = f"{scheme}_cr{_cr_tag(cr)}"
                written.append(write_ccdf_csv(curves.clipped, out / f"papr_ccdf_{tag}.csv"))
                written.append(
                    write_ccdf_csv(curves.unclipped, out / f"papr_ccdf_{tag}_unclipped.csv")
                )
        if cfg.verbosity > 0:
            _print_papr_summary(result)

    if cfg.experiment in ("ber", "both"):
        result = run_ber_experiment(cfg.spec, progress=progress)
        written.append(emit_csv(result.rows, out / "ber_table.csv"))
        if cfg.write_curves:
            # The rows are in cell order, so each (scheme, cr) curve is one run of rows.
            for (scheme, cr), rows in groupby(result.rows, key=lambda row: (row.scheme, row.cr)):
                points = [(row.ebn0_db, row.ber, row.bits_total) for row in rows]
                path = out / f"ber_curve_{scheme}_cr{_cr_tag(cr)}.csv"
                written.append(write_ber_curve_csv(points, path))
        if cfg.verbosity > 0:
            print(f"ber: {len(result.rows)} rows -> {out / 'ber_table.csv'}")

    return written


def _print_papr_summary(result) -> None:
    print("papr quantiles (dB, clipped+filtered / unclipped):")
    for row in result.rows:
        diff = "" if row.difference_db is None else f"  diff={row.difference_db:+.3f}"
        print(
            f"  {row.scheme:>6} cr={row.cr:<4g} "
            f"{row.papr_db_clipped_filtered:6.3f} / {row.papr_db_unclipped:6.3f}{diff}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="paprsim",
        description="OFDM peak-power reduction experiments: clipping plus "
        "composed frequency-domain filtering, with PAPR CCDF and BER sweeps.",
    )
    parser.add_argument("config", nargs="?", help="config file (key = value lines); "
                        "omit to run the reference defaults")
    parser.add_argument("--output-dir", help="override the output directory")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--experiment", choices=_EXPERIMENT_KINDS, help="override experiment kind")
    verb = parser.add_mutually_exclusive_group()
    verb.add_argument("-q", "--quiet", action="store_true", help="suppress the run summary")
    verb.add_argument("-v", "--verbose", action="store_true", help="print per-cell progress")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = parse_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg = replace(cfg, spec=replace(cfg.spec, seed=args.seed))
        if args.output_dir is not None:
            cfg = replace(cfg, output_dir=Path(args.output_dir))
        if args.experiment is not None:
            cfg = replace(cfg, experiment=args.experiment)
        if args.quiet:
            cfg = replace(cfg, verbosity=0)
        elif args.verbose:
            cfg = replace(cfg, verbosity=2)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        written = _run_and_write(cfg)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except PaprSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if cfg.verbosity > 0:
        print(f"wrote {len(written)} files to {cfg.output_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
