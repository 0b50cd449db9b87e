"""What the benchmark runs and what it reports: workloads and metric tables.

This module is the single source of the workload list and of every metric
name, unit, direction and bound; `BENCHMARK.json` at the repository root
is generated from it (`python3 benchmark/run.py --emit-spec`) and a test
keeps the two equal.  It imports nothing from phdtrack at module level.
"""

from __future__ import annotations

from dataclasses import dataclass

FILTERS = ("gm", "smc", "engm")

# Least time an untraced run measures: after the fixed work (every paired
# run once) it repeats runs while they fit.  The traced run does fixed work.
RUN_SECONDS = 50
# A pair whose run costs under this share of the run just finished is run
# again after it, so cheap pairs are sampled throughout a run.
CHEAP_SHARE = 0.05
# Fresh interpreters started per run, spread through it, to time set-up;
# the median is reported.
SETUP_SAMPLES = 5
# Steps of the first seed run again to check that a repeat is bit-exact.
REPEAT_STEPS = 10
# Steps 10..100 are the criterion-6a window of the acceptance tests.
OSPA_WINDOW = (10, 100)
# Scenario seeds of one benchmark seed are base * SEED_STRIDE + i.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    """One scenario variant: the reference scenario at another clutter rate.

    `seeds` paired scenario seeds are run per benchmark seed.  Mean OSPA
    differs from seed to seed (on clean, gm's by about 40%), so a run
    averages as many seeds as the time budget of the whole benchmark allows.
    """

    name: str
    clutter_rate: float
    seeds: int
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("reference", 10.0, 4,
             "the paper's scenario (emit-config default, clutter rate 10); gm management "
             "and mixture validation dominate its cost"),
    Workload("clean", 0.0, 30,
             "clutter rate 0: update and merge paths bypassed, smc k-means extraction "
             "dominates, and all three filters track so accuracy loss shows"),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str = "lower"
    bound: float | None = None

    def as_json(self) -> dict:
        out = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            out["bound"] = self.bound
        return out


# Bounds are set from the spread of ten runs on ten seeds.  On a shared
# 2-core VM the host switches between two speeds about 1.8x apart for
# seconds to minutes at a time, so every timing gets the largest bound.  Mean OSPA is bit-exact per seed; its
# spread is the seed-to-seed spread, largest for gm on clean.
_OSPA_BOUND = {"gm": 0.25, "smc": 0.15, "engm": 0.15}


def _end_to_end() -> list[Metric]:
    out = [Metric("setup_s", "s", bound=0.25)]
    out += [Metric(f"{f}.run_s", "s", bound=0.25) for f in FILTERS]
    for q in ("p50", "p90"):
        out += [Metric(f"{f}.step_ms.{q}", "ms", bound=0.25) for f in FILTERS]
    out += [Metric(f"{f}.ospa", "m", bound=_OSPA_BOUND[f]) for f in FILTERS]
    out.append(Metric("peak_rss_mb", "MB", bound=0.1))
    return out


# Per-layer metrics of one filter, relative to the "<filter>." prefix.
# "<module>.<function>.ms" is mean self time per step; the rest are means
# per step of counts taken at the same call boundaries.
_SHARED_LAYERS = [
    ("scenario.generate_scan.ms", "ms"),
    ("scenario.scan_size", "count"),
    ("metrics.ospa.ms", "ms"),
]
_PARTICLE_MOTION = [
    ("models.propagate_state.ms", "ms"),
    ("models.sample_psd_noise.ms", "ms"),
]
_MIXTURE = [
    ("gaussmix.GaussianMixture.ms", "ms"),
    ("gaussmix.GaussianMixture.covs", "count"),
]
LAYERS = {
    "gm": _SHARED_LAYERS + [
        ("phd_gm.gm_predict.ms", "ms"),
        ("phd_gm.gm_update.ms", "ms"),
        ("phd_gm.prune_merge_cap.ms", "ms"),
        ("phd_gm.gm_extract.ms", "ms"),
        ("phd_gm.floor_covariances.ms", "ms"),
        ("phd_gm.components_corrected", "count"),
        ("phd_gm.components_kept", "count"),
        ("phd_gm.kept_ratio", "ratio"),
    ] + _MIXTURE,
    "smc": _SHARED_LAYERS + _PARTICLE_MOTION + [
        ("phd_smc.smc_predict.ms", "ms"),
        ("phd_smc.smc_update.ms", "ms"),
        ("phd_smc.smc_resample.ms", "ms"),
        ("phd_smc.cluster_extract.ms", "ms"),
        ("phd_smc.kmeans_cluster.ms", "ms"),
        ("phd_smc.likelihood_pairs", "count"),
    ],
    "engm": _SHARED_LAYERS + _PARTICLE_MOTION + [
        ("phd_engm.engm_predict.ms", "ms"),
        ("phd_engm.engm_update.ms", "ms"),
        ("phd_engm.engm_resample.ms", "ms"),
        ("phd_engm.engm_extract.ms", "ms"),
        ("phd_gm.floor_covariances.ms", "ms"),
        ("phd_smc.kmeans_cluster.ms", "ms"),
        ("phd_engm.components_corrected", "count"),
        ("phd_engm.corrected_mb", "MB"),
    ] + _MIXTURE + [
        ("gaussmix.kde_from_particles.ms", "ms"),
        ("gaussmix.sample_mixture.ms", "ms"),
    ],
}

# A share of the update's corrections that survive management is better high.
_HIGHER_IS_BETTER = {"phd_gm.kept_ratio"}

END_TO_END = _end_to_end()
PER_LAYER = [Metric(f"{f}.{name}", unit, "higher" if name in _HIGHER_IS_BETTER else "lower")
             for f in FILTERS for name, unit in LAYERS[f]]


def scenario_config(workload: str, filter_kind: str, seed: int, steps: int = 100):
    """The ScenarioConfig of one paired run: the reference scenario at the
    workload's clutter rate, for `steps` one-second steps."""
    from phdtrack.models import ClutterModel, Models
    from phdtrack.scenario import ScenarioConfig

    models = Models(clutter=ClutterModel(rate=WORKLOADS[workload].clutter_rate))
    return ScenarioConfig(models=models, filter_kind=filter_kind, seed=seed,
                          t_end=float(steps))


def scenario_seeds(workload: str, seed: int) -> list[int]:
    """The paired scenario seeds that one benchmark seed stands for."""
    return [seed * SEED_STRIDE + i for i in range(WORKLOADS[workload].seeds)]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "benchmark/run.py"],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [m.as_json() for m in END_TO_END],
        "per_layer": [m.as_json() for m in PER_LAYER],
    }
