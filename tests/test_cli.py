from pathlib import Path

import pytest

from paprsim import ConfigError
from paprsim.cli import RunConfig, main, parse_config

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
    with pytest.raises(ConfigError, match="seed must be a int"):
        parse_config(write_cfg(tmp_path, "seed = abc\n"))
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(write_cfg(tmp_path, "seed = 1\nseed = 2\n"))
    with pytest.raises(ConfigError, match="unknown modulation scheme"):
        parse_config(write_cfg(tmp_path, "schemes = qpsk, 7psk\n"))


def test_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="no/such/file"):
        parse_config(tmp_path / "no" / "such" / "file.cfg")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "paprsim" in capsys.readouterr().out


def test_missing_config_exit_code(tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    assert main([str(missing)]) == 1
    assert str(missing) in capsys.readouterr().err


def test_read_point_below_sample_resolution_exits_one(tmp_path, capsys):
    # 1000 symbols at the default read point 1e-3 expect one exceedance.
    cfg = write_cfg(tmp_path, FAST_BODY.replace("ccdf_read_point = 1e-2\n", ""))
    out_dir = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out_dir)]) == 1
    assert "expected exceedances" in capsys.readouterr().err
    assert not out_dir.exists()


def test_dc_edge_plan_exits_one(tmp_path, capsys):
    # The band touches DC (f_c = BW/2): the receiver's low-pass has no
    # transition band, so the config is refused before anything runs.
    cfg = write_cfg(tmp_path, FAST_BODY + "n_subcarriers = 64\noversample = 4\n"
                    "carrier_hz = 0.5e6\ncp_len = 16\nhpf_stop_edge = 0.01\n"
                    "hpf_pass_edge = 0.03\n")
    out_dir = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out_dir)]) == 1
    assert "image-reject low-pass" in capsys.readouterr().err
    assert not out_dir.exists()


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
