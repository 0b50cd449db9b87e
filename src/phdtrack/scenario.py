"""Two-target radar scenario: truth, scans, filter runs, Monte Carlo.

Truth is deterministic constant-velocity motion with no process noise.
Each filtering step k = 1..K generates one scan at the truth positions
(detections thinned by p_detect, Gaussian measurement noise, Poisson
clutter), runs one filter recursion, extracts state estimates, and scores
them with OSPA on positions.

Randomness is split into two child streams per run, one for scans and one
for the filter, both derived from the run seed.  All filters therefore
see byte-identical scans for the same seed, which pairs the comparison,
and run r of a Monte Carlo uses seed + r.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import models as _models
from .gaussmix import GaussianMixture, NumericalCheckError
from .metrics import OspaParams, ospa
from .phd_engm import EngmPhdState, engm_extract, engm_predict, engm_resample, engm_update
from .phd_gm import GmPhdConfig, gm_extract, gm_predict, gm_update, prune_merge_cap
from .phd_smc import ParticleSet, cluster_extract, smc_predict, smc_resample, smc_update

FILTER_KINDS = ("gm", "smc", "engm")

_SCAN_STREAM = 0
_FILTER_STREAM = 1

# Mass of the initial intensity, a unit Gaussian at the origin: negligible,
# so that the births find the targets.
_INIT_WEIGHT = 1e-16


def _default_targets() -> np.ndarray:
    return np.array([
        [50.0, 50.0, 50.0, 0.5, 0.5, 2.0],
        [100.0, 100.0, 50.0, -0.5, -0.5, 2.0],
    ])


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one experiment.

    A run covers t in [0, t_end] in steps of models.motion.dt, the step
    the filters predict over, so truth and filters share one clock; a
    t_end that rounds to no step is a ValueError.  The
    budget sizes the smc and engm clouds and caps gm's managed mixture.
    A truth that no scan can measure, as at the radar's origin, is a ValueError.
    """

    initial_targets: np.ndarray = field(default_factory=_default_targets)
    t_end: float = 100.0
    models: _models.Models = field(default_factory=_models.Models)
    filter_kind: str = "engm"
    gm: GmPhdConfig = field(default_factory=GmPhdConfig)
    budget: int = 250
    ospa: OspaParams = field(default_factory=OspaParams)
    seed: int = 0
    runs: int = 25

    def __post_init__(self):
        object.__setattr__(self, "initial_targets",
                           np.atleast_2d(np.asarray(self.initial_targets, dtype=float)))
        if self.filter_kind not in FILTER_KINDS:
            raise ValueError(f"filter_kind must be one of {FILTER_KINDS}, got {self.filter_kind!r}")
        if self.n_steps < 1:
            raise ValueError(f"t_end = {self.t_end} gives no step of dt = {self.models.motion.dt}; "
                             "need t_end / dt to round to at least 1")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        truth = simulate_truth(self)[1:]
        try:
            self.models.measurement.measure(truth)
        except ValueError:
            for k, i in np.ndindex(truth.shape[:2]):  # name the first that fails
                try:
                    self.models.measurement.measure(truth[k, i])
                except ValueError as exc:
                    raise ValueError(f"target {i} at step {k + 1}: {exc}") from None

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.models.motion.dt))


@dataclass
class StepRecord:
    """Everything recorded about one filtering step."""

    k: int
    truth: np.ndarray
    extracted: np.ndarray
    n_true: int
    n_hat: int
    ospa_total: float
    ospa_loc: float
    ospa_card: float
    n_components: int
    wall_time: float


@dataclass
class RunRecord:
    """One Monte Carlo run: its seed, its steps, and any failure."""

    run: int
    seed: int
    filter_kind: str
    steps: list
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


class FilterNumericalError(RuntimeError):
    """A filter recursion failed; carries the 1-based step index and the stage.

    The stage is one of predict, update, manage (gm) or resample (smc
    and engm), and extract.
    """

    def __init__(self, step: int, stage: str, cause: Exception):
        super().__init__(f"numerical failure at step {step}, stage {stage}: {cause}")
        self.step = step
        self.stage = stage


def simulate_truth(config: ScenarioConfig) -> np.ndarray:
    """Noise-free target states at every sample time, shape (K + 1, T, 6)."""
    x0 = config.initial_targets
    t = np.arange(config.n_steps + 1)[:, None, None] * config.models.motion.dt
    out = np.repeat(x0[None], len(t), axis=0)
    out[..., :3] += t * x0[:, 3:]
    return out


def generate_scan(truth_states: np.ndarray, models: "_models.Models",
                  rng: np.random.Generator) -> _models.MeasurementScan:
    """One scan: thinned noisy detections plus clutter, in shuffled order."""
    meas = models.measurement
    rows = []
    for x in np.atleast_2d(truth_states):
        if rng.random() < models.detection.p_detect:
            z = meas.measure(x) + meas.noise_chol @ rng.standard_normal(meas.dim)
            rows.append(_models.wrap_angular(z, meas.angular))
    detections = np.array(rows).reshape(len(rows), meas.dim)
    clutter = _models.sample_clutter(models.clutter, rng, meas)
    combined = np.concatenate([detections, clutter])
    return _models.MeasurementScan(combined[rng.permutation(len(combined))])


def _initial_mixture(config: ScenarioConfig) -> GaussianMixture:
    """gm's initial intensity: one unit Gaussian at the origin of mass _INIT_WEIGHT."""
    dim = config.initial_targets.shape[1]
    return GaussianMixture(np.array([_INIT_WEIGHT]), np.zeros((1, dim)), np.eye(dim)[None])


def _initial_cloud(config: ScenarioConfig, rng: np.random.Generator) -> ParticleSet:
    """smc's and engm's initial intensity: budget draws from gm's, of the same mass."""
    states = rng.standard_normal((config.budget, config.initial_targets.shape[1]))
    return ParticleSet(states, np.full(config.budget, _INIT_WEIGHT / config.budget))


class _Stepper:
    """One filter's state between steps, and the stage its step is in."""

    def _run(self, stage, fn, *args):
        # the callers pass this module's globals, looked up at call time,
        # so that a patched stage function is the one that runs
        self.stage = stage
        return fn(*args)


class _GmStepper(_Stepper):
    def __init__(self, config: ScenarioConfig, rng: np.random.Generator):
        self.config = config
        self.mixture = _initial_mixture(config)

    def step(self, scan, rng):
        cfg = self.config
        predicted = self._run("predict", gm_predict, self.mixture, cfg.models, rng)
        corrected = self._run("update", gm_update, predicted, scan, cfg.models)
        self.mixture = self._run("manage", prune_merge_cap, corrected, cfg.gm, cfg.budget)
        n_hat, states = self._run("extract", gm_extract, self.mixture)
        return n_hat, states, len(self.mixture)


class _SmcStepper(_Stepper):
    def __init__(self, config: ScenarioConfig, rng: np.random.Generator):
        self.config = config
        self.particles = _initial_cloud(config, rng)

    def step(self, scan, rng):
        cfg = self.config
        predicted = self._run("predict", smc_predict, self.particles, cfg.models, rng)
        corrected = self._run("update", smc_update, predicted, scan, cfg.models)
        self.particles = self._run("resample", smc_resample, corrected, cfg.budget, rng)
        n_hat, states = self._run("extract", cluster_extract, self.particles, rng)
        return n_hat, states, len(self.particles)


class _EngmStepper(_Stepper):
    def __init__(self, config: ScenarioConfig, rng: np.random.Generator):
        self.config = config
        self.state = EngmPhdState(_initial_cloud(config, rng))

    def step(self, scan, rng):
        cfg = self.config
        predicted = self._run("predict", engm_predict, self.state, cfg.models, rng)
        corrected = self._run("update", engm_update, predicted, scan, cfg.models)
        self.state = self._run("resample", engm_resample, corrected, cfg.budget, rng)
        n_hat, states = self._run("extract", engm_extract, corrected)
        return n_hat, states, len(self.state.particles)


_STEPPERS = {"gm": _GmStepper, "smc": _SmcStepper, "engm": _EngmStepper}


def run_filter(config: ScenarioConfig) -> list[StepRecord]:
    """One full filtering run; returns a record per step k = 1..K.

    A numerical failure (NumericalCheckError, LinAlgError or
    FloatingPointError) aborts the run as FilterNumericalError, with the
    failing step index and stage attached; any other exception propagates
    as it is.
    """
    rng_scan = np.random.default_rng(np.random.SeedSequence([config.seed, _SCAN_STREAM]))
    rng_filter = np.random.default_rng(np.random.SeedSequence([config.seed, _FILTER_STREAM]))
    truth = simulate_truth(config)
    stepper = _STEPPERS[config.filter_kind](config, rng_filter)
    records = []
    for k in range(1, config.n_steps + 1):
        scan = generate_scan(truth[k], config.models, rng_scan)
        started = time.perf_counter()
        try:
            n_hat, extracted, n_components = stepper.step(scan, rng_filter)
        except (NumericalCheckError, np.linalg.LinAlgError, FloatingPointError) as exc:
            raise FilterNumericalError(k, stepper.stage, exc) from exc
        elapsed = time.perf_counter() - started
        total, loc, card = ospa(extracted[:, :3] if extracted.size else extracted,
                                truth[k][:, :3], config.ospa)
        records.append(StepRecord(
            k=k,
            truth=truth[k],
            extracted=extracted,
            n_true=truth[k].shape[0],
            n_hat=n_hat,
            ospa_total=total,
            ospa_loc=loc,
            ospa_card=card,
            n_components=n_components,
            wall_time=elapsed,
        ))
    return records


@dataclass
class MonteCarloSummary:
    """Per-step means over successful runs, plus an efficiency roll-up."""

    filter_kind: str
    ks: np.ndarray
    mean_ospa: np.ndarray
    mean_ospa_loc: np.ndarray
    mean_ospa_card: np.ndarray
    mean_n_hat: np.ndarray
    mean_n_components: np.ndarray
    mean_wall_time: np.ndarray
    runs: int
    failures: int
    total_wall_time: float

    def mean_over(self, values: np.ndarray, k_lo: int, k_hi: int) -> float:
        """Mean of a per-step series over the inclusive step window [k_lo, k_hi]."""
        sel = (self.ks >= k_lo) & (self.ks <= k_hi)
        return float(values[sel].mean())


def _run_one(config: ScenarioConfig, run_index: int) -> RunRecord:
    run_config = replace(config, seed=config.seed + run_index)
    try:
        steps = run_filter(run_config)
        return RunRecord(run_index, run_config.seed, config.filter_kind, steps)
    except FilterNumericalError as exc:
        return RunRecord(run_index, run_config.seed, config.filter_kind, [], error=str(exc))


def run_monte_carlo(config: ScenarioConfig,
                    threads: int = 1) -> tuple[MonteCarloSummary, list[RunRecord]]:
    """Repeat run_filter over config.runs seeds and average the step records.

    Failed runs are kept in the returned records with their error message
    but excluded from every mean.  Results do not depend on threads; runs
    are independent and merged in run order.
    """
    started = time.perf_counter()
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(_run_one, [config] * config.runs, range(config.runs)))
    else:
        records = [_run_one(config, r) for r in range(config.runs)]
    total_wall = time.perf_counter() - started
    good = [r for r in records if not r.failed]
    ks = np.arange(1, config.n_steps + 1)

    def per_step(attr):
        if not good:
            return np.full(ks.shape, np.nan)
        return np.array([[getattr(s, attr) for s in r.steps] for r in good]).mean(axis=0)

    return MonteCarloSummary(
        filter_kind=config.filter_kind,
        ks=ks,
        mean_ospa=per_step("ospa_total"),
        mean_ospa_loc=per_step("ospa_loc"),
        mean_ospa_card=per_step("ospa_card"),
        mean_n_hat=per_step("n_hat"),
        mean_n_components=per_step("n_components"),
        mean_wall_time=per_step("wall_time"),
        runs=config.runs,
        failures=len(records) - len(good),
        total_wall_time=total_wall,
    ), records
