"""Command-line front end: run experiments, compare filters, emit config.

Subcommands:
  run          one filter over a Monte Carlo batch, records to CSV
  compare      all three filters on identical scans (paired seeds)
  emit-config  write the default configuration file

Configuration is a flat INI file with one section per model; every value
defaults to the reference two-target radar scenario, so an empty file (or
no file) reproduces it.  Angles in the file are degrees; everything
internal is radians.  Flags beat the file.

Exit codes: 0 success, 1 configuration or usage error, 2 when every run
of every requested filter failed numerically.
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
from .scenario import FILTER_KINDS, ScenarioConfig, run_monte_carlo

RECORD_HEADER = "run,filter,k,n_true,n_hat,ospa,ospa_loc,ospa_card,n_components,wall_ms"
STATE_HEADER = "run,filter,k,target_slot,rx,ry,rz,vx,vy,vz"
SUMMARY_HEADER = ("filter,k,mean_ospa,mean_ospa_loc,mean_ospa_card,"
                  "mean_n_hat,mean_n_components,mean_wall_ms")
EFFICIENCY_HEADER = "filter,mean_components,total_seconds"


class ConfigError(Exception):
    """Bad configuration value; the message names the section and key."""


def _fmt(value) -> str:
    """A Python or numpy float by repr, so that it round-trips; anything else by str."""
    if isinstance(value, float):
        return repr(float(value))
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
    t_end: float = _in("scenario", default=100.0)
    dt: float = _in("scenario", default=1.0)
    budget: int = _in("scenario", default=250)
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
    kappa_override: float | None = _in("clutter", default=None)
    p_detect: float = _in("detection", default=0.98)
    p_survive: float = _in("detection", default=0.99)
    prune_threshold: float = _in("gm", default=1e-5)
    merge_threshold: float = _in("gm", default=4.0)
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
                kappa_override=self.kappa_override,
            ),
            detection=_models.DetectionSurvival(self.p_detect, self.p_survive),
        )
        return ScenarioConfig(
            initial_targets=np.asarray(self.targets, dtype=float),
            t_end=self.t_end,
            models=models,
            filter_kind=self.filter,
            gm=GmPhdConfig(self.prune_threshold, self.merge_threshold),
            budget=self.budget,
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
            # rows in the order of their integer index, which is the order
            # generate_scan draws detections in: target_2 before target_10
            indexed = []
            for key, value in parser["targets"].items():
                index = key.removeprefix("target_")
                if index == key or not index.isdecimal():
                    raise ConfigError(f"targets.{key}: expected keys named target_<i>, "
                                      f"i an integer")
                try:
                    indexed.append((int(index), _parse_vector(value)))
                except ValueError as exc:
                    raise ConfigError(f"targets.{key}: {exc}") from exc
            targets = [row for _, row in sorted(indexed, key=lambda item: item[0])]
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


def _csv(header: str, rows) -> str:
    """One CSV table: the header, then one line per row of cells (_fmt)."""
    return "\n".join([header] + [",".join(map(_fmt, row)) for row in rows]) + "\n"


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}"


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_outputs(out_dir: str, results: dict, config: ScenarioConfig):
    os.makedirs(out_dir, exist_ok=True)

    def write_csv(name, header, rows):
        _write(os.path.join(out_dir, name), _csv(header, rows))

    for kind, (_, records) in results.items():
        steps = [(rec.run, s) for rec in records for s in rec.steps]
        write_csv(f"records_{kind}.csv", RECORD_HEADER, (
            [run, kind, s.k, s.n_true, s.n_hat, s.ospa_total, s.ospa_loc, s.ospa_card,
             s.n_components, _ms(s.wall_time)] for run, s in steps))
        write_csv(f"states_{kind}.csv", STATE_HEADER, (
            [run, kind, s.k, slot, *x] for run, s in steps for slot, x in enumerate(s.extracted)))
    summaries = [summary for summary, _ in results.values()]
    write_csv("summary.csv", SUMMARY_HEADER, (
        [m.filter_kind, k, m.mean_ospa[i], m.mean_ospa_loc[i], m.mean_ospa_card[i],
         m.mean_n_hat[i], m.mean_n_components[i], _ms(m.mean_wall_time[i])]
        for m in summaries for i, k in enumerate(m.ks)))
    write_csv("efficiency.csv", EFFICIENCY_HEADER, (
        [m.filter_kind, np.mean(m.mean_n_components), f"{m.total_wall_time:.3f}"]
        for m in summaries))
    meta = {
        "seed": config.seed,
        "runs": config.runs,
        "steps": config.n_steps,
        "filters": sorted(results),
        "failures": {m.filter_kind: m.failures for m in summaries},
        "seeding": "run r uses seed seed+r; scans come from a dedicated stream per run, "
                   "so all filters see identical scans and comparisons are paired",
    }
    _write(os.path.join(out_dir, "meta.json"), json.dumps(meta, indent=2, sort_keys=True) + "\n")


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors, matching the config-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


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
        p.set_defaults(handler=_cmd_run)

    common(sub.add_parser("run", help="run one filter and write record CSVs"), True)
    common(sub.add_parser("compare", help="run gm, smc, and engm on identical scans"), False)
    emit = sub.add_parser("emit-config", help="write the default configuration file")
    emit.add_argument("path", nargs="?", default="scenario.ini")
    emit.set_defaults(handler=_cmd_emit_config)
    return parser


def _resolve(args) -> tuple[ScenarioConfig, str, int]:
    file_cfg = load_file_config(args.config)
    # compare has no --filter flag
    flags = {"filter_kind": getattr(args, "filter", None), "runs": args.runs, "seed": args.seed}
    try:
        scenario = replace(file_cfg.to_scenario(),
                           **{k: v for k, v in flags.items() if v is not None})
    except ValueError as exc:  # e.g. a birth sigma of the wrong length, or --runs 0
        raise ConfigError(f"invalid configuration: {exc}") from exc
    threads = args.threads if args.threads is not None else os.cpu_count() or 1
    if threads < 1:
        raise ConfigError("threads: must be >= 1")
    return scenario, args.out_dir or "results", threads


def _cmd_run(args) -> int:
    """run (the configured filter) and compare (every filter), on paired seeds."""
    scenario, out_dir, threads = _resolve(args)
    kinds = (scenario.filter_kind,) if args.command == "run" else FILTER_KINDS
    results = {}
    for kind in kinds:
        summary, records = run_monte_carlo(replace(scenario, filter_kind=kind), threads=threads)
        results[kind] = (summary, records)
        window = summary.mean_ospa[summary.ks >= min(10, len(summary.ks))]
        print(f"{kind}: {summary.runs - summary.failures}/{summary.runs} runs ok, "
              f"mean OSPA {np.mean(window):.2f} over the settled window, "
              f"{summary.total_wall_time:.1f}s")
        for rec in records:
            if rec.failed:
                print(f"{kind} run {rec.run} (seed {rec.seed}): {rec.error}", file=sys.stderr)
    if all(summary.failures == summary.runs for summary, _ in results.values()):
        print("every run failed; no outputs written", file=sys.stderr)
        return 2
    _write_outputs(out_dir, results, scenario)
    print(f"outputs in {out_dir}/")
    return 0


def _cmd_emit_config(args) -> int:
    _write(args.path, emit_config_text(FileConfig()))
    print(f"wrote {args.path}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
