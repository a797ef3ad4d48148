import csv
import dataclasses
from pathlib import Path

import pytest

from paprsim import (
    BerRow,
    ConfigError,
    ExperimentSpec,
    OfdmParams,
    run_ber_experiment,
    run_papr_experiment,
)
from paprsim.cli import _KEYS, RunConfig, _write_csv, main, parse_config

FAST_BODY = """
# minimal fast run
schemes = qpsk
cr_values = 1.0
n_symbols = 1000
ccdf_read_point = 1e-2
ebn0_grid_db = 8
bits_per_point = 5000
"""


def write_cfg(tmp_path: Path, body: str, name: str = "run.cfg") -> Path:
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


def test_empty_config_gives_reference_defaults(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "# nothing but a comment\n"))
    assert cfg == RunConfig()
    spec = cfg.spec
    assert spec.params.n_subcarriers == 128
    assert spec.params.oversample == 8
    assert spec.params.sample_hz == 8e6
    assert spec.params.carrier_hz == 2e6
    assert spec.params.cp_len == 32
    assert spec.cr_values == (0.8, 1.0, 1.2, 1.4, 1.6)
    assert len(spec.schemes) == 8


def test_config_recomputes_sample_rate(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "n_subcarriers = 64\noversample = 4\ncarrier_hz = 1e6\n"))
    assert cfg.spec.params.sample_hz == 4e6
    assert cfg.spec.params.n_subcarriers == 64


def test_config_negative_cr_names_constraint(tmp_path):
    with pytest.raises(ConfigError, match="cr_values must be positive"):
        parse_config(write_cfg(tmp_path, "cr_values = -1\n"))


def test_config_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(write_cfg(tmp_path, "subcarriers = 128\n"))


def test_config_bad_syntax_and_types(tmp_path):
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config(write_cfg(tmp_path, "just words\n"))
    with pytest.raises(ConfigError, match="seed must be an int"):
        parse_config(write_cfg(tmp_path, "seed = abc\n"))
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(write_cfg(tmp_path, "seed = 1\nseed = 2\n"))
    with pytest.raises(ConfigError, match="unknown modulation scheme"):
        parse_config(write_cfg(tmp_path, "schemes = qpsk, 7psk\n"))


@pytest.mark.parametrize("line, message", [
    ("write_curves = maybe", "write_curves must be a bool, got 'maybe'"),
    ("cr_values = ,", "cr_values must be a non-empty comma-separated list"),
    ("= 1", "run.cfg:1: expected 'key = value', got '= 1'"),
    ("seed =", "run.cfg:1: expected 'key = value', got 'seed ='"),
], ids=repr)
def test_a_malformed_line_exits_one(tmp_path, capsys, line, message):
    out_dir = tmp_path / "out"
    assert main([str(write_cfg(tmp_path, line + "\n")), "--output-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out_dir.exists()


@pytest.mark.parametrize("word", ["yes", "on", "1", "TRUE"])
def test_write_curves_reads_every_true_word(tmp_path, word):
    assert parse_config(write_cfg(tmp_path, f"write_curves = {word}\n")).write_curves is True


@pytest.mark.parametrize("key", ["bandwidth_hz", "carrier_hz"])
def test_a_nan_frequency_is_a_config_error(tmp_path, capsys, key):
    assert main([str(write_cfg(tmp_path, f"{key} = nan\n"))]) == 1
    assert f"config error: {key} must be" in capsys.readouterr().err


def test_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="no/such/file"):
        parse_config(tmp_path / "no" / "such" / "file.cfg")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "paprsim" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--nosuch"], ["-q", "-v"], ["a.cfg", "b.cfg"]], ids=repr)
def test_a_usage_error_exits_one(argv, capsys):
    # argparse's exit 2 was returned as is, the code of a runtime failure.
    assert main(argv) == 1
    assert "usage: paprsim" in capsys.readouterr().err


@pytest.mark.parametrize("flag, line", [(["--seed", "abc"], "seed = abc"),
                                        (["--experiment", "foo"], "experiment = foo"),
                                        (["--seed", "1.5"], "seed = 1.5")], ids=repr)
def test_a_bad_flag_value_exits_one_as_its_key_in_a_file(tmp_path, capsys, flag, line):
    # --seed abc and --experiment foo were argparse usage errors, exit 2.
    out_dir = tmp_path / "out"
    assert main([str(write_cfg(tmp_path, line + "\n")), "--output-dir", str(out_dir)]) == 1
    from_file = capsys.readouterr().err
    assert main(flag + ["--output-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == from_file
    assert from_file.startswith("config error: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("blank", ["", " "], ids=["empty", "space"])
@pytest.mark.parametrize("flag", ["--output-dir", "--seed", "--experiment"])
def test_a_blank_flag_value_exits_one_as_a_blank_value_in_a_file(tmp_path, monkeypatch, capsys,
                                                                 flag, blank):
    # --output-dir '' exited 0 and wrote its CSVs into the current directory.
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, FAST_BODY)
    assert main([str(cfg), flag, blank, "-q"]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert [path.name for path in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("flag, padded", [("--experiment", " papr"), ("--output-dir", " out ")],
                         ids=["experiment", "output-dir"])
def test_a_flag_value_is_stripped_as_a_value_in_a_file(tmp_path, monkeypatch, capsys, flag, padded):
    # --experiment ' papr' exited 1, and --output-dir ' out ' wrote into a
    # directory whose name began with a space.
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, FAST_BODY + "experiment = papr\noutput_dir = out\n")
    assert main([str(cfg), flag, padded, "-q"]) == 0
    assert capsys.readouterr() == ("", "")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out", "run.cfg"]
    assert main([str(cfg), "-q", "--output-dir", "want"]) == 0
    assert (tmp_path / "out" / "papr_table.csv").read_bytes() == (
        tmp_path / "want" / "papr_table.csv").read_bytes()


def test_flags_override_the_file_keys(tmp_path, capsys):
    file_keys = "seed = 5\nexperiment = ber\nverbosity = 2\noutput_dir = unused\n"
    cfg = write_cfg(tmp_path, FAST_BODY + file_keys)
    out_dir = tmp_path / "out"
    flags = ["--seed", "777", "--experiment", "papr", "-q", "--output-dir", str(out_dir)]
    assert main([str(cfg)] + flags) == 0
    assert capsys.readouterr() == ("", "")
    assert {p.name for p in out_dir.iterdir()} == {
        "papr_table.csv", "papr_ccdf_qpsk_cr1.csv", "papr_ccdf_qpsk_cr1_unclipped.csv"}
    want = tmp_path / "want"
    assert main([str(write_cfg(tmp_path, FAST_BODY + "seed = 777\n", "want.cfg")),
                 "--experiment", "papr", "-q", "--output-dir", str(want)]) == 0
    assert (out_dir / "papr_table.csv").read_bytes() == (want / "papr_table.csv").read_bytes()


def test_missing_config_exit_code(tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    assert main([str(missing)]) == 1
    assert str(missing) in capsys.readouterr().err


def not_utf8_cfg(tmp_path: Path) -> Path:
    path = tmp_path / "run.cfg"
    path.write_bytes(b"seed = 1\xff\n")
    return path


@pytest.mark.parametrize("make", [lambda tmp_path: tmp_path, not_utf8_cfg],
                         ids=["directory", "not_utf8"])
def test_an_unreadable_config_exits_one(tmp_path, capsys, make):
    # A directory raised IsADirectoryError and a 0xff byte UnicodeDecodeError,
    # each a traceback.
    path = make(tmp_path)
    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config(path)
    assert main([str(path), "--output-dir", str(tmp_path / "out")]) == 1
    assert f"config error: cannot read config file {path}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integer_keys_refuse_scientific_notation_with_an_int_message(tmp_path):
    # Real-valued keys take 1e6; an integer key takes plain digits, and the
    # message reads "an int".
    assert parse_config(write_cfg(tmp_path, "carrier_hz = 2e6\n")).spec.params.carrier_hz == 2e6
    with pytest.raises(ConfigError, match="bits_per_point must be an int, got '2e5'"):
        parse_config(write_cfg(tmp_path, "bits_per_point = 2e5\n"))


def test_read_point_below_sample_resolution_exits_one(tmp_path, capsys):
    # 1000 symbols at the default read point 1e-3 expect one exceedance.
    cfg = write_cfg(tmp_path, FAST_BODY.replace("ccdf_read_point = 1e-2\n", ""))
    out_dir = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out_dir)]) == 1
    assert "expected exceedances" in capsys.readouterr().err
    assert not out_dir.exists()


def test_dc_edge_plan_runs(tmp_path, capsys):
    # The band touches DC (f_c = BW/2); with explicit high-pass edges the
    # plan runs both experiments.
    cfg = write_cfg(tmp_path, FAST_BODY + "n_subcarriers = 64\noversample = 4\n"
                    "carrier_hz = 0.5e6\ncp_len = 16\nhpf_stop_edge = 0.01\n"
                    "hpf_pass_edge = 0.03\n")
    out_dir = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out_dir), "-q"]) == 0
    assert capsys.readouterr().err == ""
    assert {p.name for p in out_dir.iterdir()} == {
        "papr_table.csv", "papr_ccdf_qpsk_cr1.csv", "papr_ccdf_qpsk_cr1_unclipped.csv",
        "ber_table.csv", "ber_curve_qpsk_cr1.csv",
    }


@pytest.mark.parametrize("line, repeated", [("cr_values = 1.0", "cr_values = 1.0, 1.0"),
                                            ("ebn0_grid_db = 8", "ebn0_grid_db = 8, 8")],
                         ids=["cr_values", "ebn0_grid_db"])
def test_repeated_grid_values_exit_one(tmp_path, capsys, line, repeated):
    cfg = write_cfg(tmp_path, FAST_BODY.replace(line, repeated))
    out_dir = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out_dir)]) == 1
    assert "must be distinct" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("how", ["flag", "config"])
def test_negative_seed_exits_one(tmp_path, capsys, how):
    # Was exit 2 after the high-pass design and the output directory:
    # "papr cell failed (scheme=qpsk, cr=0.8): expected non-negative integer".
    out_dir = tmp_path / "out"
    if how == "flag":
        args = ["--seed", "-3"]
    else:
        args = [str(write_cfg(tmp_path, FAST_BODY + "seed = -3\n"))]
    assert main(args + ["--experiment", "papr", "--output-dir", str(out_dir)]) == 1
    assert "seed must be a non-negative integer, got -3" in capsys.readouterr().err
    assert not out_dir.exists()


def test_a_failed_high_pass_design_exits_two(tmp_path, capsys):
    # The exchange's first pass has a NaN error on this band plan; the
    # design raised UnboundLocalError, a traceback with exit 1.
    cfg = write_cfg(tmp_path, FAST_BODY + "hpf_stop_edge = 0.01\nhpf_pass_edge = 0.45\n")
    args = [str(cfg), "--experiment", "papr", "--output-dir", str(tmp_path / "out")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Remez exchange" in err
    assert "Traceback" not in err


def test_invalid_config_writes_nothing(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cr_values = -1\n")
    out_dir = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out_dir)]) == 1
    assert not out_dir.exists()


def test_papr_run_writes_expected_files(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_BODY)
    out_dir = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out_dir), "--experiment", "papr"]) == 0
    names = {p.name for p in out_dir.iterdir()}
    assert names == {"papr_table.csv", "papr_ccdf_qpsk_cr1.csv", "papr_ccdf_qpsk_cr1_unclipped.csv"}
    summary = capsys.readouterr().out
    assert "papr quantiles" in summary
    assert "wrote 3 files" in summary


def test_ber_run_quiet(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_BODY)
    out_dir = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out_dir), "--experiment", "ber", "-q"]) == 0
    assert capsys.readouterr().out == ""
    assert (out_dir / "ber_table.csv").exists()
    assert (out_dir / "ber_curve_qpsk_cr1.csv").exists()


def test_a_ber_run_prints_its_table_line_at_verbosity_one(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main([str(write_cfg(tmp_path, FAST_BODY)), "--output-dir", str(out_dir),
                 "--experiment", "ber"]) == 0
    assert f"ber: 1 rows -> {out_dir / 'ber_table.csv'}" in capsys.readouterr().out.splitlines()


def test_an_output_dir_that_names_a_file_exits_three(tmp_path, capsys):
    taken = write_cfg(tmp_path, "", "taken")
    assert main([str(write_cfg(tmp_path, FAST_BODY)), "--output-dir", str(taken),
                 "--experiment", "papr", "-q"]) == 3
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert taken.read_text(encoding="utf-8") == ""


def test_seed_override_changes_output(tmp_path):
    cfg = write_cfg(tmp_path, FAST_BODY)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for out, seed in ((a, None), (b, None), (c, 777)):
        argv = [str(cfg), "--output-dir", str(out), "--experiment", "papr", "-q"]
        if seed is not None:
            argv += ["--seed", str(seed)]
        assert main(argv) == 0
    same = (a / "papr_table.csv").read_bytes() == (b / "papr_table.csv").read_bytes()
    diff = (a / "papr_table.csv").read_bytes() != (c / "papr_table.csv").read_bytes()
    assert same and diff


def test_write_curves_toggle(tmp_path):
    cfg = write_cfg(tmp_path, FAST_BODY + "write_curves = false\n")
    out_dir = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out_dir), "--experiment", "papr", "-q"]) == 0
    assert {p.name for p in out_dir.iterdir()} == {"papr_table.csv"}


def test_every_key_names_a_field_of_its_target():
    fields = {cls: {f.name for f in dataclasses.fields(cls)}
              for cls in (OfdmParams, ExperimentSpec, RunConfig)}
    for key, (target, _) in _KEYS.items():
        assert key in fields[target], key
    # Every field has a key but the two that hold a nested dataclass.
    for cls, names in fields.items():
        assert names - {"params", "spec"} == {k for k, (t, _) in _KEYS.items() if t is cls}


def test_keys_are_read_in_file_order(tmp_path):
    # The unknown key was reported after every other key had been parsed.
    with pytest.raises(ConfigError, match="unknown config key 'foo'"):
        parse_config(write_cfg(tmp_path, "foo = 1\nseed = abc\n"))
    with pytest.raises(ConfigError, match="seed must be an int"):
        parse_config(write_cfg(tmp_path, "seed = abc\nfoo = 1\n"))


@pytest.mark.parametrize("field, value, message", [
    ("experiment", "nope", "experiment must be one of"),
    ("verbosity", -4, "verbosity must be 0, 1 or 2"),
    ("verbosity", 3, "verbosity must be 0, 1 or 2"),
    ("verbosity", True, "verbosity must be 0, 1 or 2"),
    ("verbosity", "1", "verbosity must be 0, 1 or 2"),
    ("verbosity", 1.0, "verbosity must be 0, 1 or 2"),
], ids=repr)
def test_run_config_refuses_an_unknown_experiment_or_verbosity(field, value, message):
    # Unchecked, experiment = "nope" ran nothing and wrote no file, and
    # verbosity -4 ran with exit 0.
    with pytest.raises(ConfigError, match=message):
        RunConfig(**{field: value})
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(RunConfig(), **{field: value})


@pytest.mark.parametrize("field, value", [
    ("spec", None),
    ("spec", OfdmParams()),
    ("output_dir", "out"),
    ("write_curves", "no"),
    ("write_curves", 0),
], ids=repr)
def test_run_config_refuses_a_wrongly_typed_spec_output_dir_or_write_curves(field, value):
    # Unchecked, output_dir = "out" was kept as a str, write_curves = "no"
    # was kept and read as true, and spec = None was accepted.
    with pytest.raises(ConfigError, match=f"{field} must be a"):
        RunConfig(**{field: value})
    with pytest.raises(ConfigError, match=f"{field} must be a"):
        dataclasses.replace(RunConfig(), **{field: value})


@pytest.mark.parametrize("line", ["verbosity = -4", "experiment = nope"])
def test_a_bad_run_key_exits_one(tmp_path, capsys, line):
    out_dir = tmp_path / "out"
    cfg = write_cfg(tmp_path, FAST_BODY + line + "\n")
    assert main([str(cfg), "--output-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out_dir.exists()


def test_each_ber_curve_file_holds_its_rows_of_the_table(tmp_path):
    # Neither grid is sorted, so the files must follow the grid order.
    cfg = write_cfg(tmp_path, "schemes = qpsk, 8qam\ncr_values = 1.4, 1.0\n"
                    "ebn0_grid_db = 8, 4\nbits_per_point = 5000\n")
    out_dir = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out_dir), "--experiment", "ber", "-q"]) == 0
    with open(out_dir / "ber_table.csv", encoding="utf-8") as fh:
        table = list(csv.DictReader(fh))
    assert [(r["scheme"], r["cr"], r["ebn0_db"]) for r in table] == [
        (scheme, cr, ebn0) for scheme in ("qpsk", "8qam") for cr in ("1.4", "1.0")
        for ebn0 in ("8.0", "4.0")]
    curves = sorted(p.name for p in out_dir.glob("ber_curve_*.csv"))
    assert curves == ["ber_curve_8qam_cr1.csv", "ber_curve_8qam_cr1p4.csv",
                      "ber_curve_qpsk_cr1.csv", "ber_curve_qpsk_cr1p4.csv"]
    for scheme in ("qpsk", "8qam"):
        for cr, tag in (("1.4", "1p4"), ("1.0", "1")):
            with open(out_dir / f"ber_curve_{scheme}_cr{tag}.csv", encoding="utf-8") as fh:
                curve = list(csv.DictReader(fh))
            assert curve == [
                {"ebn0_db": r["ebn0_db"], "ber": r["ber"], "sample_count": r["bits_total"]}
                for r in table if (r["scheme"], r["cr"]) == (scheme, cr)
            ]


def test_csv_round_trip(tmp_path):
    path = _write_csv(tmp_path / "out.csv", ["name", "value", "count", "note"],
                      [("a", 0.1 + 0.2, 3, None), ("b", 1e-17, 0, "x")])
    with open(path, newline="", encoding="utf-8") as fh:
        records = list(csv.DictReader(fh))
    assert float(records[0]["value"]) == 0.1 + 0.2  # exact round trip
    assert records[0]["note"] == ""
    assert records[1]["name"] == "b"
    assert float(records[1]["value"]) == 1e-17
    assert int(records[1]["count"]) == 0


def test_an_empty_table_writes_its_header(tmp_path):
    header = [f.name for f in dataclasses.fields(BerRow)]
    path = _write_csv(tmp_path / "empty.csv", header, [])
    assert path.read_bytes() == ",".join(header).encode("utf-8") + b"\r\n"


def test_csv_deterministic_bytes(tmp_path):
    rows = [("a", 1.25, 1, None)]
    one = _write_csv(tmp_path / "one.csv", ["name", "value", "count", "note"], rows)
    two = _write_csv(tmp_path / "two.csv", ["name", "value", "count", "note"], rows)
    assert one.read_bytes() == two.read_bytes()


def test_the_curve_files_hold_the_experiments_curves(tmp_path):
    cfg = write_cfg(tmp_path, FAST_BODY)
    out_dir = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out_dir), "-q"]) == 0
    spec = parse_config(cfg).spec
    ((_, curves),) = run_papr_experiment(spec).curves.items()
    for curve, name in ((curves.clipped, "papr_ccdf_qpsk_cr1.csv"),
                        (curves.unclipped, "papr_ccdf_qpsk_cr1_unclipped.csv")):
        with open(out_dir / name, newline="", encoding="utf-8") as fh:
            assert next(csv.reader(fh)) == ["threshold_db", "prob_exceed", "sample_count"]
            rows = list(csv.reader(fh))
        assert [float(t) for t, _, _ in rows] == list(curve.thresholds_db)
        assert [float(p) for _, p, _ in rows] == list(curve.prob_exceed)
        assert {int(n) for _, _, n in rows} == {curve.sample_count}
    with open(out_dir / "ber_curve_qpsk_cr1.csv", newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["ebn0_db", "ber", "sample_count"]] + [
            [repr(row.ebn0_db), repr(row.ber), str(row.bits_total)]
            for row in run_ber_experiment(spec).rows]
