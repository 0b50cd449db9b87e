"""Configuration file handling and the command line driver."""

import csv
import json
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from phdtrack.cli import (
    ConfigError,
    EFFICIENCY_HEADER,
    FileConfig,
    RECORD_HEADER,
    STATE_HEADER,
    SUMMARY_HEADER,
    emit_config_text,
    load_file_config,
    main,
    parse_config_text,
)


def write_config(tmp_path, **overrides):
    cfg = FileConfig()
    for key, value in overrides.items():
        setattr(cfg, key, value)
    path = tmp_path / "scenario.ini"
    path.write_text(emit_config_text(cfg), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# configuration round trip


def test_emit_parse_round_trip_is_identity():
    text = emit_config_text(FileConfig())
    parsed = parse_config_text(text)
    assert emit_config_text(parsed) == text
    assert parsed == FileConfig()


DEFAULT_CONFIG_TEXT = (
    "[scenario]\n"
    "filter = engm\n"
    "runs = 25\n"
    "seed = 0\n"
    "t_start = 0.0\n"
    "t_end = 100.0\n"
    "dt = 1.0\n"
    "budget = 250\n"
    "init_weight = 1e-16\n"
    "resample = multinomial\n"
    "\n"
    "[targets]\n"
    "target_1 = 50.0, 50.0, 50.0, 0.5, 0.5, 2.0\n"
    "target_2 = 100.0, 100.0, 50.0, -0.5, -0.5, 2.0\n"
    "\n"
    "[motion]\n"
    "sigma_accel = 0.05\n"
    "\n"
    "[measurement]\n"
    "sigma_range = 1.0\n"
    "sigma_azimuth_deg = 0.5\n"
    "sigma_elevation_deg = 0.5\n"
    "\n"
    "[birth]\n"
    "mean = 75.0, 75.0, 150.0, 0.0, 0.0, 0.0\n"
    "sigma = 50.0, 50.0, 50.0, 5.0, 5.0, 5.0\n"
    "count = 10\n"
    "weight = 0.01\n"
    "\n"
    "[clutter]\n"
    "rate = 10.0\n"
    "x_min = 0.0\n"
    "x_max = 200.0\n"
    "y_min = 0.0\n"
    "y_max = 200.0\n"
    "z_min = 0.0\n"
    "z_max = 400.0\n"
    "density = 6.25e-08\n"
    "kappa_override = \n"
    "\n"
    "[detection]\n"
    "p_detect = 0.98\n"
    "p_survive = 0.99\n"
    "\n"
    "[gm]\n"
    "prune_threshold = 1e-05\n"
    "merge_threshold = 4.0\n"
    "max_components = 250\n"
    "extraction = top-n\n"
    "extraction_threshold = 0.5\n"
    "\n"
    "[ospa]\n"
    "cutoff = 100.0\n"
    "order = 2.0\n"
)


def test_default_config_text_is_pinned(tmp_path):
    assert emit_config_text(FileConfig()) == DEFAULT_CONFIG_TEXT
    path = tmp_path / "scenario.ini"
    assert main(["emit-config", str(path)]) == 0
    assert path.read_bytes() == DEFAULT_CONFIG_TEXT.encode("ascii")


# (section, file key, text, FileConfig field, parsed value), one per field
ONE_KEY_CASES = [
    ("scenario", "filter", "gm", "filter", "gm"),
    ("scenario", "runs", "7", "runs", 7),
    ("scenario", "seed", "123", "seed", 123),
    ("scenario", "t_start", "1.5", "t_start", 1.5),
    ("scenario", "t_end", "50", "t_end", 50.0),
    ("scenario", "dt", "0.5", "dt", 0.5),
    ("scenario", "budget", "100", "budget", 100),
    ("scenario", "init_weight", "1e-10", "init_weight", 1e-10),
    ("scenario", "resample", "systematic", "resample", "systematic"),
    ("targets", "target_1", "1, 2, 3, 0.1, 0.2, 0.3", "targets",
     [[1.0, 2.0, 3.0, 0.1, 0.2, 0.3]]),
    ("motion", "sigma_accel", "0.1", "sigma_accel", 0.1),
    ("measurement", "sigma_range", "2.0", "sigma_range", 2.0),
    ("measurement", "sigma_azimuth_deg", "1.0", "sigma_azimuth_deg", 1.0),
    ("measurement", "sigma_elevation_deg", "0.25", "sigma_elevation_deg", 0.25),
    ("birth", "mean", "1, 2, 3, 4, 5, 6", "birth_mean", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
    ("birth", "sigma", "1, 1, 1, 2, 2, 2", "birth_sigma", [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]),
    ("birth", "count", "3", "birth_count", 3),
    ("birth", "weight", "0.5", "birth_weight", 0.5),
    ("clutter", "rate", "5.0", "clutter_rate", 5.0),
    ("clutter", "x_min", "-1.0", "x_min", -1.0),
    ("clutter", "x_max", "300.0", "x_max", 300.0),
    ("clutter", "y_min", "-2.0", "y_min", -2.0),
    ("clutter", "y_max", "250.0", "y_max", 250.0),
    ("clutter", "z_min", "-3.0", "z_min", -3.0),
    ("clutter", "z_max", "500.0", "z_max", 500.0),
    ("clutter", "density", "1e-7", "density", 1e-7),
    ("clutter", "kappa_override", "2.5e-3", "kappa_override", 2.5e-3),
    ("detection", "p_detect", "0.9", "p_detect", 0.9),
    ("detection", "p_survive", "0.95", "p_survive", 0.95),
    ("gm", "prune_threshold", "1e-4", "prune_threshold", 1e-4),
    ("gm", "merge_threshold", "9.0", "merge_threshold", 9.0),
    ("gm", "max_components", "50", "max_components", 50),
    ("gm", "extraction", "threshold", "extraction", "threshold"),
    ("gm", "extraction_threshold", "0.7", "extraction_threshold", 0.7),
    ("ospa", "cutoff", "50.0", "ospa_cutoff", 50.0),
    ("ospa", "order", "1.0", "ospa_order", 1.0),
]


def test_one_key_cases_cover_every_field_once():
    assert sorted(case[3] for case in ONE_KEY_CASES) == sorted(f.name for f in fields(FileConfig))


@pytest.mark.parametrize("section,key,text,attr,value", ONE_KEY_CASES,
                         ids=[f"{case[0]}.{case[1]}" for case in ONE_KEY_CASES])
def test_one_key_sets_its_field_and_no_other(section, key, text, attr, value):
    parsed = parse_config_text(f"[{section}]\n{key} = {text}\n")
    assert getattr(FileConfig(), attr) != value
    assert parsed == replace(FileConfig(), **{attr: value})
    assert type(getattr(parsed, attr)) is type(value)


def test_parse_rejects_keys_outside_their_section():
    with pytest.raises(ConfigError, match="unknown key motion.runs"):
        parse_config_text("[motion]\nruns = 3\n")
    with pytest.raises(ConfigError, match="unknown key birth.birth_mean"):
        parse_config_text("[birth]\nbirth_mean = 1, 2, 3, 4, 5, 6\n")
    with pytest.raises(ConfigError, match="clutter.kappa_override"):
        parse_config_text("[clutter]\nkappa_override = often\n")
    with pytest.raises(ConfigError, match="scenario.runs"):
        parse_config_text("[scenario]\nruns = 2.5\n")


def test_round_trip_preserves_overrides():
    cfg = FileConfig()
    cfg.filter = "gm"
    cfg.runs = 7
    cfg.seed = 123
    cfg.kappa_override = 2.5e-3
    cfg.targets = [[1.0, 2.0, 3.0, 0.1, 0.2, 0.3]]
    text = emit_config_text(cfg)
    parsed = parse_config_text(text)
    assert parsed.filter == "gm"
    assert parsed.runs == 7
    assert parsed.seed == 123
    assert parsed.kappa_override == pytest.approx(2.5e-3)
    assert parsed.targets == [[1.0, 2.0, 3.0, 0.1, 0.2, 0.3]]
    assert emit_config_text(parsed) == text


def test_parse_rejects_unknown_sections_and_keys():
    good = emit_config_text(FileConfig())
    with pytest.raises(ConfigError):
        parse_config_text(good + "\n[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("[scenario]\nwarp_speed = 9\n")
    with pytest.raises(ConfigError):
        parse_config_text("[scenario]\nruns = not-a-number\n")
    with pytest.raises(ConfigError):
        parse_config_text("[scenario]\nfilter = ukf\n")
    with pytest.raises(ConfigError):
        parse_config_text("[targets]\nrogue = 1,2,3,4,5,6\n")
    with pytest.raises(ConfigError):
        parse_config_text("not an ini file [[[")


def test_to_scenario_wiring():
    cfg = FileConfig()
    cfg.filter = "smc"
    cfg.sigma_azimuth_deg = 1.0
    cfg.kappa_override = 9e-4
    cfg.runs = 3
    cfg.seed = 11
    scenario = cfg.to_scenario()
    assert scenario.filter_kind == "smc"
    assert scenario.runs == 3
    assert scenario.seed == 11
    meas = scenario.models.measurement
    assert meas.sigmas[1] == pytest.approx(np.deg2rad(1.0))
    assert meas.sigmas[2] == pytest.approx(np.deg2rad(0.5))
    assert scenario.models.clutter.kappa == pytest.approx(9e-4)
    birth = scenario.models.birth
    assert birth.cov == pytest.approx(np.diag(np.array([50.0, 50, 50, 5, 5, 5]) ** 2))
    assert scenario.models.clutter.region[2, 1] == 400.0


def test_default_kappa_through_config():
    scenario = FileConfig().to_scenario()
    assert scenario.models.clutter.kappa == pytest.approx(6.25e-7, rel=1e-12)
    assert scenario.budget == 250


def test_load_file_config():
    assert load_file_config(None) == FileConfig()
    with pytest.raises(ConfigError):
        load_file_config("/nonexistent/path/scenario.ini")


# ---------------------------------------------------------------------------
# commands


def test_emit_config_command(tmp_path):
    path = tmp_path / "out.ini"
    assert main(["emit-config", str(path)]) == 0
    assert parse_config_text(path.read_text(encoding="utf-8")) == FileConfig()


def test_run_command_writes_outputs(tmp_path):
    config = write_config(tmp_path, t_end=5.0, runs=2, budget=40)
    out_dir = tmp_path / "results"
    code = main(["run", "--filter", "engm", "--config", config,
                 "--out-dir", str(out_dir), "--threads", "1"])
    assert code == 0
    records_path = out_dir / "records_engm.csv"
    lines = records_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == RECORD_HEADER
    assert len(lines) == 1 + 2 * 5  # two runs of five steps
    with open(records_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        assert row["filter"] == "engm"
        assert int(row["n_components"]) == 40
        assert 0.0 <= float(row["ospa"]) <= 100.0
        float(row["wall_ms"])
    states_lines = (out_dir / "states_engm.csv").read_text(encoding="utf-8").splitlines()
    assert states_lines[0] == STATE_HEADER
    summary_lines = (out_dir / "summary.csv").read_text(encoding="utf-8").splitlines()
    assert summary_lines[0] == SUMMARY_HEADER
    assert len(summary_lines) == 1 + 5
    meta = json.loads((out_dir / "meta.json").read_text(encoding="utf-8"))
    assert meta["runs"] == 2
    assert meta["steps"] == 5
    assert meta["filters"] == ["engm"]
    assert meta["failures"] == {"engm": 0}


def test_compare_command(tmp_path):
    config = write_config(tmp_path, t_end=3.0, runs=1, budget=30)
    out_dir = tmp_path / "cmp"
    assert main(["compare", "--config", config, "--out-dir", str(out_dir),
                 "--threads", "1"]) == 0
    for kind in ("gm", "smc", "engm"):
        assert (out_dir / f"records_{kind}.csv").exists()
    eff = (out_dir / "efficiency.csv").read_text(encoding="utf-8").splitlines()
    assert eff[0] == EFFICIENCY_HEADER
    assert len(eff) == 4
    kinds = sorted(line.split(",")[0] for line in eff[1:])
    assert kinds == ["engm", "gm", "smc"]
    meta = json.loads((out_dir / "meta.json").read_text(encoding="utf-8"))
    assert meta["filters"] == ["engm", "gm", "smc"]


def test_cli_flags_override_config(tmp_path):
    config = write_config(tmp_path, t_end=3.0, runs=5, budget=30, seed=0)
    out_dir = tmp_path / "ovr"
    assert main(["run", "--filter", "smc", "--config", config, "--runs", "1",
                 "--seed", "42", "--out-dir", str(out_dir), "--threads", "1"]) == 0
    meta = json.loads((out_dir / "meta.json").read_text(encoding="utf-8"))
    assert meta["runs"] == 1
    assert meta["seed"] == 42
    assert meta["filters"] == ["smc"]


def test_environment_overrides(tmp_path, monkeypatch):
    config = write_config(tmp_path, t_end=3.0, runs=4, budget=30)
    out_dir = tmp_path / "env-results"
    monkeypatch.setenv("PHDTRACK_CONFIG", config)
    monkeypatch.setenv("PHDTRACK_FILTER", "smc")
    monkeypatch.setenv("PHDTRACK_RUNS", "1")
    monkeypatch.setenv("PHDTRACK_SEED", "5")
    monkeypatch.setenv("PHDTRACK_OUT_DIR", str(out_dir))
    monkeypatch.setenv("PHDTRACK_THREADS", "1")
    assert main(["run"]) == 0
    meta = json.loads((out_dir / "meta.json").read_text(encoding="utf-8"))
    assert meta["runs"] == 1
    assert meta["seed"] == 5
    assert meta["filters"] == ["smc"]


def test_flags_beat_environment(tmp_path, monkeypatch):
    config = write_config(tmp_path, t_end=3.0, runs=4, budget=30)
    monkeypatch.setenv("PHDTRACK_SEED", "5")
    out_dir = tmp_path / "beat"
    assert main(["run", "--filter", "smc", "--config", config, "--runs", "1",
                 "--seed", "8", "--out-dir", str(out_dir), "--threads", "1"]) == 0
    meta = json.loads((out_dir / "meta.json").read_text(encoding="utf-8"))
    assert meta["seed"] == 8


def test_config_errors_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nwarp = 1\n", encoding="utf-8")
    assert main(["run", "--filter", "engm", "--config", str(bad)]) == 1
    assert main(["run", "--filter", "engm", "--config",
                 str(tmp_path / "missing.ini")]) == 1
    # values that parse but that a model rejects
    bad.write_text("[birth]\nsigma = 1, 2, 3\n", encoding="utf-8")
    assert main(["run", "--filter", "smc", "--config", str(bad)]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["run", "--filter", "bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["teleport"])
    assert exc.value.code == 1


def test_bad_environment_value(tmp_path, monkeypatch):
    config = write_config(tmp_path, t_end=3.0, runs=1, budget=30)
    monkeypatch.setenv("PHDTRACK_RUNS", "many")
    assert main(["run", "--filter", "smc", "--config", config,
                 "--out-dir", str(tmp_path / "x"), "--threads", "1"]) == 1


def test_validate_command():
    assert main(["validate"]) == 0


def test_run_deterministic_outputs(tmp_path):
    config = write_config(tmp_path, t_end=4.0, runs=1, budget=30)
    outs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        assert main(["run", "--filter", "engm", "--config", config, "--seed", "3",
                     "--out-dir", str(out_dir), "--threads", "1"]) == 0
        outs.append(out_dir)
    # states files carry no timing and must match byte for byte
    a = (outs[0] / "states_engm.csv").read_bytes()
    b = (outs[1] / "states_engm.csv").read_bytes()
    assert a == b
