"""Ensemble Gaussian-mixture form of the intensity recursion.

The posterior intensity lives as a uniformly weighted particle cloud whose
particles are labelled with the part of the intensity they belong to: one
part per target hypothesis.  Prediction propagates the survivors and wraps
each part in its own kernel density estimate, beta * SampleCov(part): the
kernel follows the shape of one target's cloud, not the distance between
targets, and not the expected target count it carries, exactly as in the
single-target ensemble filter.  The birth intensity is added as the same
Gaussian components the plain Gaussian-mixture filter uses
(birth_components).  The update is that filter's bank-of-EKFs corrector,
gm_update, imported here as engm_update, clutter intensity kappa(z)
included; each measurement's corrected block becomes a new part, and the
missed-detection copies stay in their parts.  Sampling from the corrected
mixture then restores the uniform cloud, so mixture growth never
compounds, and the state estimates are the means of the heaviest parts of
the corrected mixture.  With one target and no births, clutter or missed
detections there is a single part, and the recursion is the
single-target ensemble filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models as _models
from .gaussmix import (
    GaussianMixture,
    floor_covariance,
    kde_from_particles,
    sample_mixture,
    sample_mixture_indexed,
    silverman_bandwidth,
)
# engm_update is the one corrector under this filter's stage name
from .phd_gm import birth_components, gm_update as engm_update  # noqa: F401
from .phd_smc import ParticleSet

UNIFORMITY_TOL = 1e-12


@dataclass(frozen=True)
class EngmPhdState:
    """Posterior carried between steps: a uniformly weighted particle cloud.

    parts labels each particle with its part of the intensity; left out,
    every particle is in part 0.
    """

    particles: ParticleSet
    particle_count: int
    parts: np.ndarray | None = None

    def __post_init__(self):
        if len(self.particles) != self.particle_count:
            raise ValueError(
                f"state holds {len(self.particles)} particles, expected {self.particle_count}")
        w = self.particles.weights
        if len(w) and w.max() - w.min() > UNIFORMITY_TOL * max(w.max(), 1.0):
            raise ValueError("particle weights must be uniform")
        parts = np.zeros(len(w), dtype=np.int64) if self.parts is None else np.asarray(self.parts)
        if parts.shape != (len(w),) or not np.issubdtype(parts.dtype, np.integer):
            raise ValueError(f"parts must be one integer label per particle, got {parts.shape}")
        object.__setattr__(self, "parts", parts.astype(np.int64, copy=False))


def engm_predict(state: EngmPhdState, models: "_models.Models",
                 rng: np.random.Generator) -> GaussianMixture:
    """Predicted intensity: per-part survivor KDE, then birth components.

    Survivors are propagated with process noise and wrapped in a KDE of
    mass p_survive * N in which every part has its own kernel (see
    kde_from_particles).  The birth components, drawn by birth_components
    as gm_predict draws them, follow as one new part.  With no birth
    material the survivor KDE is returned alone; with zero survivor mass,
    the birth components are.  Both pieces had their covariances checked
    where they were computed, so joining them checks nothing new.
    """
    motion = models.motion
    cloud = state.particles
    survivors = _models.propagate_state(cloud.states, motion.dt)
    survivors = survivors + _models.sample_psd_noise(motion.process_noise, len(cloud), rng)
    surviving_mass = models.detection.p_survive * cloud.mass
    if models.birth.count_per_step == 0 or models.birth.mass_per_step <= 0.0:
        return kde_from_particles(survivors, surviving_mass, state.parts)
    births = birth_components(models.birth, rng)
    birth_parts = np.full(len(births), int(state.parts.max(initial=-1)) + 1)
    if surviving_mass <= 0.0:
        return GaussianMixture._assemble(births.weights, births.means, births.covs, birth_parts)
    kde = kde_from_particles(survivors, surviving_mass, state.parts)
    return GaussianMixture._assemble(
        np.concatenate([kde.weights, births.weights]),
        np.concatenate([kde.means, births.means]),
        np.concatenate([kde.covs, births.covs]),
        np.concatenate([kde.parts, birth_parts]),
    )


def engm_resample(posterior: GaussianMixture, count: int,
                  rng: np.random.Generator) -> EngmPhdState:
    """Draw `count` particles from the corrected mixture, uniform weights mass/count.

    Each particle joins the part of the component it was drawn from.
    """
    mass = posterior.mass
    if mass <= 0:
        raise ValueError("cannot resample a mixture with zero mass")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    idx, states = sample_mixture_indexed(posterior, count, rng)
    return EngmPhdState(ParticleSet(states, np.full(count, mass / count)), count,
                        posterior.parts[idx])


def engm_extract(posterior: GaussianMixture) -> tuple[int, np.ndarray]:
    """Cardinality and state estimates from the corrected mixture's parts.

    The cardinality estimate is the mass rounded half-up, as in gm_extract;
    the estimates are the weighted means of that many heaviest parts (ties
    broken by label), each the posterior mean of one target hypothesis.
    Zero estimated targets yields an empty state array.
    """
    n_hat = int(np.floor(posterior.mass + 0.5))
    if n_hat <= 0 or len(posterior) == 0:
        return max(n_hat, 0), np.zeros((0, posterior.dim))
    labels, inverse = np.unique(posterior.parts, return_inverse=True)
    part_mass = np.bincount(inverse, weights=posterior.weights, minlength=labels.size)
    part_sum = np.stack([np.bincount(inverse, weights=col, minlength=labels.size)
                         for col in (posterior.weights[:, None] * posterior.means).T], axis=1)
    heaviest = np.argsort(-part_mass, kind="stable")[:n_hat]
    heaviest = heaviest[part_mass[heaviest] > 0.0]
    return n_hat, part_sum[heaviest] / part_mass[heaviest, None]


def engmf_step(states: np.ndarray, scan: "_models.MeasurementScan",
               models: "_models.Models", rng: np.random.Generator) -> np.ndarray:
    """One step of the plain single-target ensemble Gaussian-mixture filter.

    Reference recursion for the degenerate configuration (one target that
    always survives and is always detected, no clutter, no births): the
    cloud is propagated, wrapped in a KDE with the unscaled Silverman
    bandwidth, corrected against the scan's single measurement with
    normalized weights, and resampled back to the same size.  Written as
    its own straight-line path, deliberately separate from the intensity
    recursion, so the two can be compared against each other.
    """
    if len(scan) != 1:
        raise ValueError("the reference recursion expects exactly one measurement")
    states = np.asarray(states, dtype=float)
    j, n = states.shape
    motion = models.motion
    meas = models.measurement
    prop = _models.propagate_state(states, motion.dt)
    prop = prop + _models.sample_psd_noise(motion.process_noise, j, rng)
    prior_cov = floor_covariance(silverman_bandwidth(n, j) * np.atleast_2d(np.cov(prop.T, ddof=1)))
    z = scan.values[0]
    r = np.asarray(meas.noise_cov, dtype=float)
    z_dim = r.shape[0]
    weights = np.empty(j)
    means = np.empty((j, n))
    covs = np.empty((j, n, n))
    for i in range(j):
        h = meas.jacobian(prop[i])
        s = h @ prior_cov @ h.T + r
        s = 0.5 * (s + s.T)
        gain = prior_cov @ h.T @ np.linalg.inv(s)
        innov = z - meas.measure(prop[i])
        innov[meas.angular] = _models.wrap_angle(innov[meas.angular])
        means[i] = prop[i] + gain @ innov
        updated = prior_cov - gain @ h @ prior_cov
        covs[i] = floor_covariance(0.5 * (updated + updated.T))
        chol = np.linalg.cholesky(s)
        white = np.linalg.solve(chol, innov)
        weights[i] = np.exp(-0.5 * (white @ white + z_dim * np.log(2.0 * np.pi))
                            - np.log(np.diag(chol)).sum())
    total = weights.sum()
    if total <= 0:
        raise np.linalg.LinAlgError("all posterior weights vanished in the reference step")
    posterior = GaussianMixture(weights / total, means, covs)
    return sample_mixture(posterior, j, rng)
