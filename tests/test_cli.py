"""Configuration file handling and the command line driver."""

import csv
import json
import os
import warnings
from dataclasses import fields, is_dataclass, replace

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
from phdtrack.scenario import ScenarioConfig


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
    "t_end = 100.0\n"
    "dt = 1.0\n"
    "budget = 250\n"
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
    "kappa_override = \n"
    "\n"
    "[detection]\n"
    "p_detect = 0.98\n"
    "p_survive = 0.99\n"
    "\n"
    "[gm]\n"
    "prune_threshold = 1e-05\n"
    "merge_threshold = 4.0\n"
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
    ("scenario", "t_end", "50", "t_end", 50.0),
    ("scenario", "dt", "0.5", "dt", 0.5),
    ("scenario", "budget", "100", "budget", 100),
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
    ("clutter", "kappa_override", "2.5e-3", "kappa_override", 2.5e-3),
    ("detection", "p_detect", "0.9", "p_detect", 0.9),
    ("detection", "p_survive", "0.95", "p_survive", 0.95),
    ("gm", "prune_threshold", "1e-4", "prune_threshold", 1e-4),
    ("gm", "merge_threshold", "9.0", "merge_threshold", 9.0),
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


def test_targets_keep_their_integer_order():
    # target_10 sorts before target_2 as a string; rows must come back in
    # index order, which is the order scans draw detections in
    cfg = FileConfig()
    cfg.targets = [[float(i), 0.0, 0.0, 0.0, 0.0, 0.0] for i in range(1, 12)]
    text = emit_config_text(cfg)
    parsed = parse_config_text(text)
    assert [row[0] for row in parsed.targets] == list(range(1, 12))
    assert emit_config_text(parsed) == text
    for key in ("target_x", "target_", "target_1.5", "target_-1"):
        with pytest.raises(ConfigError, match=f"targets.{key}:"):
            parse_config_text(f"[targets]\n{key} = 1,2,3,4,5,6\n")


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
    # keys that repeated another setting; a file that still holds one is rejected
    for section, key, text in (("scenario", "t_start", "0.0"), ("clutter", "density", "6.25e-08"),
                               ("gm", "extraction", "top-n"), ("gm", "extraction_threshold", "0.5"),
                               ("scenario", "resample", "systematic"),
                               ("scenario", "init_weight", "1e-16"),
                               ("gm", "max_components", "250")):
        with pytest.raises(ConfigError, match=f"unknown key {section}.{key}"):
            parse_config_text(f"[{section}]\n{key} = {text}\n")


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
    assert scenario.models.clutter.kappa_override == 9e-4
    birth = scenario.models.birth
    assert birth.cov == pytest.approx(np.diag(np.array([50.0, 50, 50, 5, 5, 5]) ** 2))
    assert scenario.models.clutter.region[2, 1] == 400.0


def leaves(value, path=""):
    """(path, value) for every leaf of a configuration: dataclass fields and
    plain objects' attributes are walked, anything else is a leaf."""
    if is_dataclass(value):
        items = [(f.name, getattr(value, f.name)) for f in fields(value)]
    elif hasattr(value, "__dict__"):
        items = sorted(vars(value).items())
    else:
        yield path, value
        return
    for name, child in items:
        yield from leaves(child, f"{path}.{name}")


def test_file_defaults_are_the_library_defaults():
    # with no file at all the command line runs the scenario that the
    # library's defaults describe, leaf for leaf and bit for bit
    got = dict(leaves(FileConfig().to_scenario()))
    want = dict(leaves(ScenarioConfig()))
    assert got.keys() == want.keys()
    for path, value in want.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(got[path], value), path
        else:
            assert type(got[path]) is type(value) and got[path] == value, path


def test_default_kappa_through_config():
    scenario = FileConfig().to_scenario()
    meas = scenario.models.measurement
    z = meas.measure(np.array([[120.0, 80.0, 150.0]]))
    expected = 10.0 / (200.0 * 200.0 * 400.0) * z[:, 0] ** 2 * np.cos(z[:, 2])
    assert scenario.models.clutter.intensity(z, meas) == pytest.approx(expected, rel=1e-12)
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


def test_flags_beat_environment(tmp_path, monkeypatch, capsys):
    # precedence is flag, then file: a PHDTRACK_* variable changes nothing
    config = write_config(tmp_path, t_end=3.0, runs=4, budget=30, seed=2)
    monkeypatch.setenv("PHDTRACK_SEED", "5")
    for flags, seed in ((["--seed", "8"], 8), ([], 2)):
        out_dir = tmp_path / f"seed{seed}"
        assert main(["run", "--filter", "smc", "--config", config, "--runs", "1",
                     "--out-dir", str(out_dir), "--threads", "1"] + flags) == 0
        meta = json.loads((out_dir / "meta.json").read_text(encoding="utf-8"))
        assert meta["seed"] == seed
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "PHDTRACK_" not in capsys.readouterr().out


def test_config_errors_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nwarp = 1\n", encoding="utf-8")
    assert main(["run", "--filter", "engm", "--config", str(bad)]) == 1
    assert main(["run", "--filter", "engm", "--config",
                 str(tmp_path / "missing.ini")]) == 1
    # values that parse but that a model rejects
    bad.write_text("[birth]\nsigma = 1, 2, 3\n", encoding="utf-8")
    assert main(["run", "--filter", "smc", "--config", str(bad)]) == 1
    # a flag value that the scenario rejects
    assert main(["run", "--filter", "smc", "--runs", "0"]) == 1
    # a run of no step, which would write tables without a step row
    capsys.readouterr()
    config = write_config(tmp_path, t_end=0.0)
    assert main(["compare", "--config", config, "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: invalid configuration: t_end = 0.0 gives no step of dt = 1.0")
    assert not (tmp_path / "out").exists()
    with pytest.raises(SystemExit) as exc:
        main(["run", "--filter", "bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["teleport"])
    assert exc.value.code == 1


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


# ---------------------------------------------------------------------------
# numerical failures


def _fail_updates(monkeypatch, kinds):
    """Make every run of each of `kinds` fail at its first update."""
    import phdtrack.scenario as scenario
    from phdtrack.gaussmix import NumericalCheckError

    def broken(*args):
        raise NumericalCheckError("bad mass")

    for kind in kinds:
        monkeypatch.setattr(scenario, f"{kind}_update", broken)


def _failure_lines(kind, runs, seed):
    return [f"{kind} run {r} (seed {seed + r}): numerical failure at step 1, "
            f"stage update: bad mass" for r in range(runs)]


@pytest.mark.parametrize("command", [["run", "--filter", "gm"], ["compare"]],
                         ids=["run", "compare"])
def test_every_run_failed_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys, command):
    config = write_config(tmp_path, t_end=3.0, runs=2, budget=30, seed=5)
    kinds = ["gm"] if command[0] == "run" else ["gm", "smc", "engm"]
    _fail_updates(monkeypatch, kinds)
    out_dir = tmp_path / "out"
    assert main(command + ["--config", config, "--out-dir", str(out_dir),
                           "--threads", "1"]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    for kind in kinds:
        assert f"{kind}: 0/2 runs ok, mean OSPA nan over the settled window, " in captured.out
        for line in _failure_lines(kind, 2, 5):
            assert line in err
    assert not out_dir.exists()


def test_compare_with_one_filter_failing_writes_every_file(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path, t_end=3.0, runs=2, budget=30, seed=5)
    _fail_updates(monkeypatch, ["gm"])
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compare", "--config", config, "--out-dir", str(out_dir),
                     "--threads", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == _failure_lines("gm", 2, 5)
    out = captured.out.splitlines()
    assert out[0].startswith("gm: 0/2 runs ok, mean OSPA nan over the settled window, ")
    assert out[1].startswith("smc: 2/2 runs ok, mean OSPA ")
    assert out[2].startswith("engm: 2/2 runs ok, mean OSPA ")
    assert out[3] == f"outputs in {out_dir}/"
    for kind in ("gm", "smc", "engm"):
        for name in (f"records_{kind}.csv", f"states_{kind}.csv"):
            assert (out_dir / name).exists()
    # a failed run has no steps, so gm's record and state files hold only their headers
    assert (out_dir / "records_gm.csv").read_text(encoding="utf-8") == RECORD_HEADER + "\n"
    efficiency = (out_dir / "efficiency.csv").read_text(encoding="utf-8").splitlines()
    assert efficiency[1].startswith("gm,nan,")
    meta = json.loads((out_dir / "meta.json").read_text(encoding="utf-8"))
    assert meta["failures"] == {"gm": 2, "smc": 0, "engm": 0}
