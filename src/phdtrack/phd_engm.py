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
the corrected mixture (gm_extract, imported here as engm_extract).  With
one target and no births, clutter or missed detections there is a single
part, and the recursion is the single-target ensemble filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models as _models
from .gaussmix import GaussianMixture, kde_from_particles, sample_mixture
# the one corrector and the one extraction rule under this filter's stage names
from .phd_gm import birth_components
from .phd_gm import gm_extract as engm_extract, gm_update as engm_update  # noqa: F401
from .phd_smc import ParticleSet

UNIFORMITY_TOL = 1e-12


@dataclass(frozen=True)
class EngmPhdState:
    """Posterior carried between steps: a uniformly weighted particle cloud.

    parts labels each particle with its part of the intensity; left out,
    every particle is in part 0.  After a correction of zero mass the
    cloud is empty: the empty cloud is the zero intensity.
    """

    particles: ParticleSet
    parts: np.ndarray | None = None

    def __post_init__(self):
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
    p_survive times the cloud's mass, in which every part has its own
    kernel (see kde_from_particles).  The birth components, drawn by
    birth_components as gm_predict draws them, follow as one new part.
    With zero survivor mass the birth components are returned alone; with
    no births either, that is the empty mixture.  Both pieces had their
    covariances checked where they were computed, so joining them checks
    nothing new.
    """
    motion = models.motion
    cloud = state.particles
    survivors = _models.propagate_state(cloud.states, motion.dt)
    survivors = survivors + _models.sample_psd_noise(motion.noise_factor, len(cloud), rng)
    surviving_mass = models.detection.p_survive * cloud.mass
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

    Each particle joins the part of the component it was drawn from, and
    the parts are renumbered 0..P-1 in the order of their labels, so the
    label range follows the number of parts, not the step count.  Zero
    mass is the empty intensity: the result is the empty cloud, and
    nothing is drawn.  The next prediction's births reseed it.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    mass = posterior.mass
    if mass <= 0:
        return EngmPhdState(ParticleSet(np.zeros((0, posterior.dim)), np.zeros(0)))
    idx, states = sample_mixture(posterior, count, rng)
    parts = np.unique(posterior.parts[idx], return_inverse=True)[1]
    return EngmPhdState(ParticleSet(states, np.full(count, mass / count)), parts)

