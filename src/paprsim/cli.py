"""Command-line front end: parse a config file, run experiments, write CSVs.

Config format: one ``key = value`` assignment per line, ``#`` starts a
comment, blank lines ignored. Lists are comma separated. Each key sets the
field of the same name of ``OfdmParams``, ``ExperimentSpec`` or
``RunConfig`` (``_KEYS``), whose checks validate it; an unknown key is
refused. Every key is optional: an absent key takes its field's default,
so an empty file runs the reference parameter set end to end. Each flag
but ``--help`` is a key too (``--seed`` is ``seed``, ``-q`` is
``verbosity = 0``), parsed the same way and set over the file's value.
See configs/reference.cfg for a fully annotated example and the README
for the key table.

This module writes every output file (``_write_csv``).

Exit codes: 0 success, 1 configuration problem or command-line usage
error, 2 runtime failure, 3 output I/O failure.
"""
from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import astuple, dataclass, fields
from itertools import groupby
from pathlib import Path

from .constellation import ModScheme
from .errors import ConfigError, PaprSimError
from .harness import BerRow, ExperimentSpec, PaprRow, run_ber_experiment, run_papr_experiment
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
            article = "an" if kind.__name__[0] in "aeiou" else "a"
            raise ConfigError(f"{key} must be {article} {kind.__name__}, got {raw!r}") from None
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
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not UTF-8
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = (part.strip() for part in stripped.partition("="))
        if not (key and sep and value):
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
    """Load and fully validate a config file (``_run_config``)."""
    return _run_config(_read_key_values(Path(path)))


def _run_config(pairs: dict[str, str]) -> RunConfig:
    """The run that ``key: raw value`` pairs describe. Keys are read in
    order, and an unknown key is refused; the dataclasses' defaults fill
    absent keys and their own checks validate the values."""
    kwargs = {OfdmParams: {}, ExperimentSpec: {}, RunConfig: {}}
    for key, raw in pairs.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        target, parse = _KEYS[key]
        kwargs[target][key] = parse(key, raw)
    # sample_hz is always bandwidth * oversample
    spec = ExperimentSpec(params=OfdmParams(**kwargs[OfdmParams]), **kwargs[ExperimentSpec])
    return RunConfig(spec=spec, **kwargs[RunConfig])


def _cell(value) -> str:
    """One CSV cell: a float in shortest round-trip form, None as empty."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header, rows) -> Path:
    """Write a header and rows of values to a UTF-8 CSV file. The bytes
    depend on the values alone: fixed column order, no timestamps."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(value) for value in row] for row in rows)
    return path


def _cr_tag(cr: float) -> str:
    return f"{cr:g}".replace(".", "p")


def _run_and_write(cfg: RunConfig) -> list[Path]:
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    progress = (lambda msg: print(f"  running {msg}", file=sys.stderr)) if cfg.verbosity > 1 else None
    written: list[Path] = []

    if cfg.experiment in ("papr", "both"):
        result = run_papr_experiment(cfg.spec, progress=progress)
        written.append(_write_csv(out / "papr_table.csv", [f.name for f in fields(PaprRow)],
                                  map(astuple, result.rows)))
        if cfg.write_curves:
            for (scheme, cr), curves in result.curves.items():
                for curve, suffix in ((curves.clipped, ""), (curves.unclipped, "_unclipped")):
                    path = out / f"papr_ccdf_{scheme}_cr{_cr_tag(cr)}{suffix}.csv"
                    written.append(_write_csv(
                        path, ["threshold_db", "prob_exceed", "sample_count"],
                        ((t, p, curve.sample_count)
                         for t, p in zip(curve.thresholds_db, curve.prob_exceed))))
        if cfg.verbosity > 0:
            _print_papr_summary(result)

    if cfg.experiment in ("ber", "both"):
        result = run_ber_experiment(cfg.spec, progress=progress)
        written.append(_write_csv(out / "ber_table.csv", [f.name for f in fields(BerRow)],
                                  map(astuple, result.rows)))
        if cfg.write_curves:
            # The rows are in cell order, so each (scheme, cr) curve is one run of rows.
            for (scheme, cr), rows in groupby(result.rows, key=lambda row: (row.scheme, row.cr)):
                written.append(_write_csv(
                    out / f"ber_curve_{scheme}_cr{_cr_tag(cr)}.csv",
                    ["ebn0_db", "ber", "sample_count"],
                    ((row.ebn0_db, row.ber, row.bits_total) for row in rows)))
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
    # Each flag's dest is the config key it sets; its value is parsed as that key's.
    parser.add_argument("--output-dir", help="set output_dir")
    parser.add_argument("--seed", help="set seed, the master seed")
    parser.add_argument("--experiment", help="set experiment: papr, ber or both")
    verb = parser.add_mutually_exclusive_group()
    verb.add_argument("-q", "--quiet", dest="verbosity", action="store_const", const="0",
                      help="suppress the run summary (verbosity = 0)")
    verb.add_argument("-v", "--verbose", dest="verbosity", action="store_const", const="2",
                      help="print per-cell progress (verbosity = 2)")

    try:
        args = vars(parser.parse_args(argv))
    except SystemExit as exc:  # --help exits 0, a usage error 2
        return 1 if exc.code else 0

    config = args.pop("config")
    try:
        pairs = _read_key_values(Path(config)) if config else {}
        for key, raw in args.items():
            if raw is not None and not raw.strip():  # as a config file's blank value
                raise ConfigError(f"--{key.replace('_', '-')} must not be blank, got {raw!r}")
        pairs.update((key, raw) for key, raw in args.items() if raw is not None)
        cfg = _run_config(pairs)
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
