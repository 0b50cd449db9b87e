"""The single-target ensemble Gaussian-mixture filter (EnGMF), written out by hand.

With one target that always survives and is always detected, no births and
no clutter, the intensity recursion reduces to this filter.  Criterion 1
and test_phd_engm hold engm to it.  Each particle is corrected on its own,
in a loop, with textbook extended Kalman algebra, apart from the batched
corrector the package uses.
"""

import numpy as np

from phdtrack.gaussmix import GaussianMixture, floor_covariances, sample_mixture, silverman_bandwidth
from phdtrack.models import propagate_state, sample_psd_noise, wrap_angular


def reference_engmf_step(states, z, models, rng):
    """One EnGMF step from a cloud and one measurement z: (posterior, next cloud).

    The cloud is propagated with process noise, wrapped in a KDE with the
    Silverman bandwidth, corrected against z with weights normalised to 1,
    and resampled to its size.  It draws from rng as engm does.
    """
    j, n = states.shape
    meas = models.measurement
    prop = propagate_state(states, models.motion.dt)
    prop = prop + sample_psd_noise(models.motion.noise_factor, j, rng)
    prior_cov = floor_covariances((silverman_bandwidth(n, j) * np.cov(prop.T, ddof=1))[None])[0]
    weights = np.empty(j)
    means = np.empty((j, n))
    covs = np.empty((j, n, n))
    for i in range(j):
        h = meas.jacobian(prop[i])
        s = h @ prior_cov @ h.T + meas.noise_cov
        s = 0.5 * (s + s.T)
        gain = prior_cov @ h.T @ np.linalg.inv(s)
        innov = wrap_angular(z - meas.measure(prop[i]), meas.angular)
        means[i] = prop[i] + gain @ innov
        updated = prior_cov - gain @ h @ prior_cov
        covs[i] = floor_covariances((0.5 * (updated + updated.T))[None])[0]
        # N(innov; 0, s) without its constant (2 pi)^(-d/2), which the normalisation cancels
        chol = np.linalg.cholesky(s)
        white = np.linalg.solve(chol, innov)
        weights[i] = np.exp(-0.5 * white @ white) / np.prod(np.diag(chol))
    posterior = GaussianMixture(weights / weights.sum(), means, covs)
    return posterior, sample_mixture(posterior, j, rng)[1]
