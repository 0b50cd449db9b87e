"""Command-line front end: run experiments, compare filters, validate, emit config.

Subcommands:
  run          one filter over a Monte Carlo batch, records to CSV
  compare      all three filters on identical scans (paired seeds)
  validate     built-in invariant and oracle self-checks
  emit-config  write the default configuration file

Configuration is a flat INI file with one section per model; every value
defaults to the reference two-target radar scenario, so an empty file (or
no file) reproduces it.  Angles in the file are degrees; everything
internal is radians.  Flags beat environment variables (PHDTRACK_FILTER,
PHDTRACK_RUNS, PHDTRACK_SEED, PHDTRACK_CONFIG, PHDTRACK_OUT_DIR,
PHDTRACK_THREADS), which beat the file.

Exit codes: 0 success, 1 configuration or usage error, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace
from itertools import groupby

import numpy as np

from . import models as _models
from .metrics import OspaParams
from .phd_gm import GmPhdConfig
from .scenario import FILTER_KINDS, MonteCarloSummary, RunRecord, ScenarioConfig, run_monte_carlo

ENV_PREFIX = "PHDTRACK_"

RECORD_HEADER = "run,filter,k,n_true,n_hat,ospa,ospa_loc,ospa_card,n_components,wall_ms"
STATE_HEADER = "run,filter,k,target_slot,rx,ry,rz,vx,vy,vz"
SUMMARY_HEADER = ("filter,k,mean_ospa,mean_ospa_loc,mean_ospa_card,"
                  "mean_n_hat,mean_n_components,mean_wall_ms")
EFFICIENCY_HEADER = "filter,mean_components,total_seconds"


class ConfigError(Exception):
    """Bad configuration value; the message names the section and key."""


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fmt_vector(values) -> str:
    return ", ".join(_fmt(float(v)) for v in values)


def _in(section: str, key: str | None = None, **default):
    """A FileConfig field written under [section] as `key` (left out: the field name)."""
    return field(metadata={"section": section, "key": key}, **default)


@dataclass
class FileConfig:
    """Exact mirror of the configuration file, in file units (degrees).

    Each field is one file key and is declared only here: its metadata
    names the section and the key, its annotation says how the value is
    read and written (_FORMATS), and the field order is the order of the
    emitted file.  [targets] holds one key per target, target_1, target_2...
    """

    filter: str = _in("scenario", default="engm")
    runs: int = _in("scenario", default=25)
    seed: int = _in("scenario", default=0)
    t_start: float = _in("scenario", default=0.0)
    t_end: float = _in("scenario", default=100.0)
    dt: float = _in("scenario", default=1.0)
    budget: int = _in("scenario", default=250)
    init_weight: float = _in("scenario", default=1e-16)
    resample: str = _in("scenario", default="multinomial")
    targets: list = _in("targets", default_factory=lambda: [
        [50.0, 50.0, 50.0, 0.5, 0.5, 2.0],
        [100.0, 100.0, 50.0, -0.5, -0.5, 2.0],
    ])
    sigma_accel: float = _in("motion", default=0.05)
    sigma_range: float = _in("measurement", default=1.0)
    sigma_azimuth_deg: float = _in("measurement", default=0.5)
    sigma_elevation_deg: float = _in("measurement", default=0.5)
    birth_mean: list = _in("birth", "mean",
                           default_factory=lambda: [75.0, 75.0, 150.0, 0.0, 0.0, 0.0])
    birth_sigma: list = _in("birth", "sigma",
                            default_factory=lambda: [50.0, 50.0, 50.0, 5.0, 5.0, 5.0])
    birth_count: int = _in("birth", "count", default=10)
    birth_weight: float = _in("birth", "weight", default=0.01)
    clutter_rate: float = _in("clutter", "rate", default=10.0)
    x_min: float = _in("clutter", default=0.0)
    x_max: float = _in("clutter", default=200.0)
    y_min: float = _in("clutter", default=0.0)
    y_max: float = _in("clutter", default=200.0)
    z_min: float = _in("clutter", default=0.0)
    z_max: float = _in("clutter", default=400.0)
    density: float = _in("clutter", default=6.25e-8)
    kappa_override: float | None = _in("clutter", default=None)
    p_detect: float = _in("detection", default=0.98)
    p_survive: float = _in("detection", default=0.99)
    prune_threshold: float = _in("gm", default=1e-5)
    merge_threshold: float = _in("gm", default=4.0)
    max_components: int = _in("gm", default=250)
    extraction: str = _in("gm", default="top-n")
    extraction_threshold: float = _in("gm", default=0.5)
    ospa_cutoff: float = _in("ospa", "cutoff", default=100.0)
    ospa_order: float = _in("ospa", "order", default=2.0)

    def to_scenario(self) -> ScenarioConfig:
        models = _models.Models(
            motion=_models.MotionModel(
                dt=self.dt,
                process_noise=_models.dwna_process_noise(self.dt, self.sigma_accel),
            ),
            measurement=_models.RadarMeasurementModel(
                sigma_range=self.sigma_range,
                sigma_azimuth=float(np.deg2rad(self.sigma_azimuth_deg)),
                sigma_elevation=float(np.deg2rad(self.sigma_elevation_deg)),
            ),
            birth=_models.BirthModel(
                mean=np.asarray(self.birth_mean, dtype=float),
                cov=np.diag(np.asarray(self.birth_sigma, dtype=float) ** 2),
                count_per_step=self.birth_count,
                weight_each=self.birth_weight,
            ),
            clutter=_models.ClutterModel(
                rate=self.clutter_rate,
                region=np.array([[self.x_min, self.x_max],
                                 [self.y_min, self.y_max],
                                 [self.z_min, self.z_max]]),
                density=self.density,
                kappa_override=self.kappa_override,
            ),
            detection=_models.DetectionSurvival(self.p_detect, self.p_survive),
        )
        return ScenarioConfig(
            initial_targets=np.asarray(self.targets, dtype=float),
            t_start=self.t_start,
            t_end=self.t_end,
            dt=self.dt,
            models=models,
            filter_kind=self.filter,
            gm=GmPhdConfig(self.prune_threshold, self.merge_threshold,
                           self.max_components, self.extraction, self.extraction_threshold),
            budget=self.budget,
            init_weight=self.init_weight,
            resample_method=self.resample,
            ospa=OspaParams(self.ospa_cutoff, self.ospa_order),
            seed=self.seed,
            runs=self.runs,
        )


def _parse_vector(text: str) -> list:
    return [float(part) for part in text.split(",")]


# (parse, format) by a FileConfig field's annotation, a string under the
# __future__ import of annotations
_FORMATS = {
    "str": (str.strip, str),
    "int": (int, str),
    "float": (float, _fmt),
    "float | None": (lambda text: None if text.strip() == "" else float(text),
                     lambda value: "" if value is None else _fmt(value)),
    "list": (_parse_vector, _fmt_vector),
}

# (section, key) -> FileConfig field, in field order
_FIELDS = {(f.metadata["section"], f.metadata["key"] or f.name): f for f in fields(FileConfig)}
_SECTIONS = {section for section, _ in _FIELDS}


def emit_config_text(cfg: FileConfig) -> str:
    """Canonical configuration text; parse followed by emit is the identity."""
    lines = []
    for section, group in groupby(_FIELDS.items(), key=lambda item: item[0][0]):
        lines.append(f"[{section}]")
        for (_, key), f in group:
            value = getattr(cfg, f.name)
            if section == "targets":
                lines.extend(f"target_{i + 1} = {_fmt_vector(t)}" for i, t in enumerate(value))
            else:
                lines.append(f"{key} = {_FORMATS[f.type][1](value)}")
        lines.append("")
    return "\n".join(lines)


def parse_config_text(text: str) -> FileConfig:
    """Parse configuration text; unknown sections or keys are errors."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc
    cfg = FileConfig()
    for section in parser.sections():
        if section == "targets":
            targets = []
            keys = sorted(parser["targets"], key=lambda k: k.lower())
            for key in keys:
                if not key.startswith("target_"):
                    raise ConfigError(f"targets.{key}: expected keys named target_<i>")
                try:
                    targets.append(_parse_vector(parser["targets"][key]))
                except ValueError as exc:
                    raise ConfigError(f"targets.{key}: {exc}") from exc
            if targets:
                if len({len(t) for t in targets}) != 1:
                    raise ConfigError("targets: all targets need the same dimension")
                cfg.targets = targets
            continue
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            f = _FIELDS.get((section, key))
            if f is None:
                raise ConfigError(f"unknown key {section}.{key}")
            try:
                value = _FORMATS[f.type][0](parser[section][key])
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from exc
            setattr(cfg, f.name, value)
    if cfg.filter not in FILTER_KINDS:
        raise ConfigError(f"scenario.filter: must be one of {'/'.join(FILTER_KINDS)}")
    return cfg


def load_file_config(path: str | None) -> FileConfig:
    if path is None:
        return FileConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc


def _records_csv(records: list, kind: str) -> str:
    lines = [RECORD_HEADER]
    for rec in records:
        for s in rec.steps:
            lines.append(",".join([
                str(rec.run), kind, str(s.k), str(s.n_true), str(s.n_hat),
                repr(s.ospa_total), repr(s.ospa_loc), repr(s.ospa_card),
                str(s.n_components), f"{s.wall_time * 1e3:.3f}",
            ]))
    return "\n".join(lines) + "\n"


def _states_csv(records: list, kind: str) -> str:
    lines = [STATE_HEADER]
    for rec in records:
        for s in rec.steps:
            for slot, x in enumerate(s.extracted):
                lines.append(",".join(
                    [str(rec.run), kind, str(s.k), str(slot)] + [repr(float(v)) for v in x]))
    return "\n".join(lines) + "\n"


def _summary_rows(summary: MonteCarloSummary) -> list:
    rows = []
    for i, k in enumerate(summary.ks):
        rows.append(",".join([
            summary.filter_kind, str(int(k)),
            repr(float(summary.mean_ospa[i])), repr(float(summary.mean_ospa_loc[i])),
            repr(float(summary.mean_ospa_card[i])), repr(float(summary.mean_n_hat[i])),
            repr(float(summary.mean_n_components[i])),
            f"{float(summary.mean_wall_time[i]) * 1e3:.3f}",
        ]))
    return rows


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_outputs(out_dir: str, results: dict, config: ScenarioConfig):
    os.makedirs(out_dir, exist_ok=True)
    summary_lines = [SUMMARY_HEADER]
    efficiency_lines = [EFFICIENCY_HEADER]
    failures = {}
    for kind, (summary, records) in results.items():
        _write(os.path.join(out_dir, f"records_{kind}.csv"), _records_csv(records, kind))
        _write(os.path.join(out_dir, f"states_{kind}.csv"), _states_csv(records, kind))
        summary_lines.extend(_summary_rows(summary))
        efficiency_lines.append(",".join([
            kind,
            repr(float(np.nanmean(summary.mean_n_components))),
            f"{summary.total_wall_time:.3f}",
        ]))
        failures[kind] = summary.failures
    _write(os.path.join(out_dir, "summary.csv"), "\n".join(summary_lines) + "\n")
    _write(os.path.join(out_dir, "efficiency.csv"), "\n".join(efficiency_lines) + "\n")
    meta = {
        "seed": config.seed,
        "runs": config.runs,
        "steps": config.n_steps,
        "filters": sorted(results),
        "failures": failures,
        "seeding": "run r uses seed seed+r; scans come from a dedicated stream per run, "
                   "so all filters see identical scans and comparisons are paired",
    }
    _write(os.path.join(out_dir, "meta.json"), json.dumps(meta, indent=2, sort_keys=True) + "\n")


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors, matching the config-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="phdtrack", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_filter: bool):
        if with_filter:
            p.add_argument("--filter", choices=FILTER_KINDS, default=None,
                           help="which recursion to run")
        p.add_argument("--runs", type=int, default=None, help="Monte Carlo run count")
        p.add_argument("--seed", type=int, default=None, help="master seed; run r uses seed+r")
        p.add_argument("--config", default=None, help="configuration file path")
        p.add_argument("--out-dir", default=None, help="output directory (default: results)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes for runs (default: available cores)")

    common(sub.add_parser("run", help="run one filter and write record CSVs"), True)
    common(sub.add_parser("compare", help="run gm, smc, and engm on identical scans"), False)
    sub.add_parser("validate", help="run the built-in self-checks")
    emit = sub.add_parser("emit-config", help="write the default configuration file")
    emit.add_argument("path", nargs="?", default="scenario.ini")
    return parser


def _resolve(args) -> tuple[ScenarioConfig, str, int]:
    config_path = args.config or _env("CONFIG")
    file_cfg = load_file_config(config_path)
    try:
        scenario = file_cfg.to_scenario()
    except ValueError as exc:  # a model rejected a value, e.g. a birth sigma of the wrong length
        raise ConfigError(f"invalid model: {exc}") from exc
    filter_kind = getattr(args, "filter", None) or _env("FILTER")
    if filter_kind is not None:
        if filter_kind not in FILTER_KINDS:
            raise ConfigError(f"filter: must be one of {'/'.join(FILTER_KINDS)}")
        scenario = replace(scenario, filter_kind=filter_kind)
    for name, attr in (("RUNS", "runs"), ("SEED", "seed")):
        value = getattr(args, attr, None)
        if value is None and _env(name) is not None:
            try:
                value = int(_env(name))
            except ValueError as exc:
                raise ConfigError(f"{ENV_PREFIX}{name}: {exc}") from exc
        if value is not None:
            scenario = replace(scenario, **{attr: value})
    out_dir = args.out_dir or _env("OUT_DIR") or "results"
    threads = args.threads
    if threads is None and _env("THREADS") is not None:
        try:
            threads = int(_env("THREADS"))
        except ValueError as exc:
            raise ConfigError(f"{ENV_PREFIX}THREADS: {exc}") from exc
    if threads is None:
        threads = os.cpu_count() or 1
    if threads < 1:
        raise ConfigError("threads: must be >= 1")
    return scenario, out_dir, threads


def _cmd_run(args) -> int:
    scenario, out_dir, threads = _resolve(args)
    summary, records = run_monte_carlo(scenario, threads=threads)
    if summary.failures == summary.runs:
        print("all runs failed; see stderr", file=sys.stderr)
        for rec in records:
            print(f"run {rec.run} (seed {rec.seed}): {rec.error}", file=sys.stderr)
        return 2
    _write_outputs(out_dir, {scenario.filter_kind: (summary, records)}, scenario)
    window = summary.mean_ospa[summary.ks >= min(10, summary.ks[-1])]
    print(f"{scenario.filter_kind}: {summary.runs - summary.failures}/{summary.runs} runs ok, "
          f"mean position error {np.nanmean(window):.2f} over the settled window, "
          f"outputs in {out_dir}/")
    return 0


def _cmd_compare(args) -> int:
    scenario, out_dir, threads = _resolve(args)
    results = {}
    any_ok = False
    for kind in FILTER_KINDS:
        one = replace(scenario, filter_kind=kind)
        summary, records = run_monte_carlo(one, threads=threads)
        results[kind] = (summary, records)
        any_ok = any_ok or summary.failures < summary.runs
        print(f"{kind}: {summary.runs - summary.failures}/{summary.runs} runs ok, "
              f"{summary.total_wall_time:.1f}s")
    if not any_ok:
        print("all runs of every filter failed", file=sys.stderr)
        return 2
    _write_outputs(out_dir, results, scenario)
    print(f"outputs in {out_dir}/")
    return 0


def _cmd_emit_config(args) -> int:
    _write(args.path, emit_config_text(FileConfig()))
    print(f"wrote {args.path}")
    return 0


# ---------------------------------------------------------------------------
# validate: a fast, self-contained invariant and oracle sweep.

def _check_bandwidth():
    from .gaussmix import silverman_bandwidth
    value = silverman_bandwidth(6, 250)
    assert abs(value - 0.28854) <= 1e-4, value
    assert silverman_bandwidth(2, 1) == 1.0
    return f"silverman(6, 250) = {value:.5f}"


def _check_kde():
    from .gaussmix import kde_from_particles, silverman_bandwidth
    rng = np.random.default_rng(11)
    cloud = np.concatenate([rng.standard_normal((30, 3)),
                            50.0 + 3.0 * rng.standard_normal((25, 3))])
    parts = np.repeat([0, 1], [30, 25])
    mix = kde_from_particles(cloud, 2.5, parts)
    assert abs(mix.mass - 2.5) <= 1e-12 * 2.5
    for label in (0, 1):
        own = cloud[parts == label]
        kernel = silverman_bandwidth(3, len(own)) * np.cov(own.T, ddof=1)
        assert np.abs(mix.covs[parts == label] - kernel).max() <= 1e-12 * np.abs(kernel).max()
    one_d = kde_from_particles(np.array([[0.0], [2.0]]), 1.0)
    assert abs(one_d.covs[0][0, 0] - 1.7006) <= 1e-3
    return "mass conserved, each part its own kernel beta(n, J_p) * Cov(part)"


def _check_selection():
    from .gaussmix import GaussianMixture, cumulative_select, sample_mixture
    weights = np.array([0.5, 0.3, 0.2])
    picks = [cumulative_select(weights, u) for u in (0.2, 0.7, 1.0)]
    assert picks == [0, 1, 2], picks
    mix = GaussianMixture(weights, np.zeros((3, 2)), np.broadcast_to(np.eye(2), (3, 2, 2)).copy())
    a = sample_mixture(mix, 50, np.random.default_rng(3))
    b = sample_mixture(mix, 50, np.random.default_rng(3))
    assert np.array_equal(a, b)
    return "cumulative rule and seeded determinism hold"


def _check_density():
    from .gaussmix import eval_gaussian
    xs = np.linspace(-10.0, 10.0, 10001)
    vals = [eval_gaussian(np.array([x]), np.array([0.3]), np.array([[1.7]])) for x in xs]
    integral = np.trapezoid(vals, xs)
    assert abs(integral - 1.0) <= 1e-6, integral
    return f"1-D density integrates to {integral:.8f}"


def _check_jacobian():
    from .models import RadarMeasurementModel
    meas = RadarMeasurementModel()
    rng = np.random.default_rng(7)
    states = rng.uniform(20.0, 200.0, size=(200, 6))
    jac = meas.jacobian(states)
    for d in range(3):
        h = 1e-6 * (1.0 + np.abs(states[:, d]))
        hi = states.copy(); hi[:, d] += h
        lo = states.copy(); lo[:, d] -= h
        fd = (meas.measure(hi) - meas.measure(lo)) / (2 * h[:, None])
        assert np.abs(fd - jac[:, :, d]).max() <= 1e-5
    return "analytic radar jacobian matches finite differences"


def _check_clutter():
    from .models import ClutterModel, RadarMeasurementModel
    model = ClutterModel()
    meas = RadarMeasurementModel()
    volume = float(np.prod(model.region[:, 1] - model.region[:, 0]))
    assert abs(model.density * volume - 1.0) <= 1e-12
    assert abs(model.kappa - 6.25e-7) <= 1e-20
    z = meas.measure(np.array([[50.0, 80.0, 120.0], [-10.0, 50.0, 50.0]]))
    kappa = model.intensity(z, meas)
    expect = model.rate * model.density * z[0, 0] ** 2 * np.cos(z[0, 2])
    assert abs(kappa[0] - expect) <= 1e-12 * expect, (kappa[0], expect)
    assert kappa[1] == 0.0, kappa[1]
    return (f"clutter intensity {model.kappa:.3e} in the box, "
            f"kappa(z) = rate * density * r^2 cos(el) inside, 0 outside")


def _check_assignment():
    from itertools import permutations
    from .metrics import assignment_min_cost
    rng = np.random.default_rng(13)
    for size in range(2, 6):
        for _ in range(20):
            cost = rng.random((size, size))
            _, total = assignment_min_cost(cost)
            brute = min(sum(cost[i, p[i]] for i in range(size))
                        for p in permutations(range(size)))
            assert abs(total - brute) <= 1e-12
    return "assignment equals brute force up to size 5"


def _check_ospa():
    from .metrics import OspaParams, ospa
    params = OspaParams(100.0, 2.0)
    total, loc, card = ospa(np.array([[0.0, 0.0, 0.0]]), np.array([[3.0, 4.0, 0.0]]), params)
    assert abs(total - 5.0) <= 1e-9 and abs(card) <= 1e-12
    total, _, _ = ospa(np.zeros((0, 3)), np.array([[1.0, 2.0, 3.0]]), params)
    assert abs(total - 100.0) <= 1e-9
    total, _, _ = ospa(np.array([[0.0, 0.0, 0.0]]),
                       np.array([[0.0, 0.0, 0.0], [500.0, 500.0, 500.0]]), params)
    assert abs(total - 100.0 / np.sqrt(2.0)) <= 1e-9
    assert ospa(np.zeros((0, 3)), np.zeros((0, 3)), params) == (0.0, 0.0, 0.0)
    return "cutoff and decomposition examples hold"


def _check_gm_ledger():
    from .gaussmix import GaussianMixture
    from .phd_gm import gm_predict, gm_update, prune_merge_cap
    from .scenario import ScenarioConfig, generate_scan, simulate_truth
    config = ScenarioConfig(filter_kind="gm", t_end=10.0)
    truth = simulate_truth(config)
    rng = np.random.default_rng(17)
    mix = GaussianMixture(np.array([config.init_weight]), np.zeros((1, 6)),
                          np.eye(6)[None, :, :])
    p_s = config.models.detection.p_survive
    birth_mass = config.models.birth.mass_per_step
    for k in range(1, 11):
        predicted = gm_predict(mix, config.models, rng)
        expect = p_s * mix.mass + birth_mass
        assert abs(predicted.mass - expect) <= 1e-12 * max(expect, 1.0)
        mix = prune_merge_cap(gm_update(predicted, generate_scan(truth[k], config.models, rng),
                                        config.models), config.gm)
    return "predicted mass = p_survive * mass + birth mass, 10 steps"


def _check_particle_ledgers():
    from .phd_smc import ParticleSet, smc_resample
    from .gaussmix import GaussianMixture
    from .phd_engm import engm_resample
    rng = np.random.default_rng(19)
    cloud = ParticleSet(rng.standard_normal((120, 6)), rng.random(120))
    resampled = smc_resample(cloud, 250, rng)
    assert abs(resampled.mass - cloud.mass) <= 1e-12 * cloud.mass
    weights = rng.random(40)
    mix = GaussianMixture(weights, rng.standard_normal((40, 6)),
                          np.broadcast_to(np.eye(6), (40, 6, 6)).copy())
    state = engm_resample(mix, 250, rng)
    assert abs(state.particles.mass - mix.mass) <= 1e-12 * mix.mass
    assert state.particles.weights.max() == state.particles.weights.min()
    return "resampling conserves mass with uniform weights"


def _check_reduction():
    from .phd_engm import EngmPhdState, engm_predict, engm_resample, engm_update, engmf_step
    from .phd_smc import ParticleSet
    from .models import MeasurementScan, Models, ClutterModel, DetectionSurvival, BirthModel
    from .scenario import ScenarioConfig, simulate_truth, generate_scan
    models = Models(
        birth=BirthModel(count_per_step=0, weight_each=0.0),
        clutter=ClutterModel(rate=0.0, kappa_override=0.0),
        detection=DetectionSurvival(p_detect=1.0, p_survive=1.0),
    )
    config = ScenarioConfig(initial_targets=np.array([[50.0, 50.0, 50.0, 0.5, 0.5, 2.0]]),
                            models=models, t_end=10.0, seed=23)
    truth = simulate_truth(config)
    scan_rng = np.random.default_rng(29)
    scans = [generate_scan(truth[k], models, scan_rng) for k in range(1, 11)]
    j = 50
    init = np.array([50.0, 50.0, 50.0, 0.5, 0.5, 2.0]) + np.random.default_rng(31).standard_normal((j, 6))
    rng_a = np.random.default_rng(37)
    rng_b = np.random.default_rng(37)
    state = EngmPhdState(ParticleSet(init.copy(), np.full(j, 1.0 / j)), j)
    reference = init.copy()
    for scan in scans:
        prior = engm_predict(state, models, rng_a)
        state = engm_resample(engm_update(prior, scan, models), j, rng_a)
        reference = engmf_step(reference, scan, models, rng_b)
        err = np.abs(state.particles.states - reference).max()
        assert err <= 1e-9 * max(1.0, np.abs(reference).max()), err
    return "intensity recursion collapses to the single-target reference"


def _check_determinism():
    from .scenario import ScenarioConfig, run_filter
    config = ScenarioConfig(t_end=5.0, seed=7)
    a = run_filter(config)
    b = run_filter(config)
    same = all(np.array_equal(x.extracted, y.extracted) and x.n_hat == y.n_hat
               and x.ospa_total == y.ospa_total for x, y in zip(a, b))
    assert same
    return "identical seeds give identical runs"


_CHECKS = [
    ("bandwidth", _check_bandwidth),
    ("kde", _check_kde),
    ("selection", _check_selection),
    ("density", _check_density),
    ("jacobian", _check_jacobian),
    ("clutter", _check_clutter),
    ("assignment", _check_assignment),
    ("ospa", _check_ospa),
    ("gm-ledger", _check_gm_ledger),
    ("particle-ledgers", _check_particle_ledgers),
    ("reduction", _check_reduction),
    ("determinism", _check_determinism),
]


def _cmd_validate(_args) -> int:
    failures = 0
    for name, check in _CHECKS:
        try:
            detail = check()
            print(f"ok   {name}: {detail}")
        except Exception as exc:  # report every failed check, then exit nonzero
            failures += 1
            print(f"FAIL {name}: {exc!r}")
    if failures:
        print(f"{failures} of {len(_CHECKS)} checks failed")
        return 2
    print(f"all {len(_CHECKS)} checks passed")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "emit-config":
            return _cmd_emit_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
