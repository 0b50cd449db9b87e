"""Multi-target tracking with three interchangeable intensity filters.

The expected-target-count intensity is propagated either as a Gaussian
mixture (bank of extended Kalman corrections), as a weighted particle
cloud (bootstrap reweighting), or as an ensemble hybrid that rebuilds a
kernel density estimate from particles every step, one kernel per part of
the intensity.
A radar scenario driver, OSPA scoring, and a Monte Carlo harness with a
CLI sit on top.
"""

from .gaussmix import (
    GaussianMixture,
    NumericalCheckError,
    kde_from_particles,
    sample_mixture,
    silverman_bandwidth,
)
from .metrics import OspaParams, assignment_min_cost, ospa
from .models import (
    BirthModel,
    ClutterModel,
    DetectionSurvival,
    LinearMeasurementModel,
    MeasurementScan,
    Models,
    MotionModel,
    RadarMeasurementModel,
    propagate_state,
    transition_matrix,
)
from .phd_engm import (
    EngmPhdState,
    engm_extract,
    engm_predict,
    engm_resample,
    engm_update,
)
from .phd_gm import GmPhdConfig, gm_extract, gm_predict, gm_update, prune_merge_cap
from .phd_smc import ParticleSet, cluster_extract, smc_predict, smc_resample, smc_update
from .scenario import (
    MonteCarloSummary,
    RunRecord,
    ScenarioConfig,
    StepRecord,
    generate_scan,
    run_filter,
    run_monte_carlo,
    simulate_truth,
)

__version__ = "0.1.0"
