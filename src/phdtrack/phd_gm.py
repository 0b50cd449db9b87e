"""Gaussian-mixture form of the intensity recursion.

Prediction pushes every component through the constant-velocity map
F(dt) and appends spawn and birth components (birth_components, which
the ensemble filter shares); the update, gm_update, runs a bank of
extended Kalman corrections, one missed-detection copy plus one corrected
copy per measurement, and is the corrector of the ensemble filter too.
Mixture growth is contained by prune / merge / cap, which preserves total
mass by rescaling.  Each stage checks the covariances it computes and
nothing else (see gaussmix).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models as _models
from .gaussmix import GaussianMixture, check_covariances, floor_covariances

# Candidate seeds per batch of merge distances.  The greedy loop does no
# linear algebra at any size from 16 to 64; 64 added about 1.3 MB of
# (block, J, n) temporaries to a gm run's peak memory, 32 about 0.4 MB.
MERGE_BLOCK = 32


@dataclass(frozen=True)
class GmPhdConfig:
    """Mixture management knobs: pruning, merging, capping, extraction."""

    prune_threshold: float = 1e-5
    merge_threshold: float = 4.0
    max_components: int = 250
    extraction: str = "top-n"
    extraction_threshold: float = 0.5

    def __post_init__(self):
        if self.prune_threshold < 0 or self.merge_threshold < 0:
            raise ValueError("thresholds must be >= 0")
        if self.max_components < 1:
            raise ValueError("max_components must be >= 1")
        if self.extraction not in ("top-n", "threshold"):
            raise ValueError(f"unknown extraction mode: {self.extraction!r}")


def gm_predict(posterior: GaussianMixture, models: "_models.Models",
               rng: np.random.Generator) -> GaussianMixture:
    """Predicted mixture: survivors, then spawn terms, then sampled births.

    Survivors keep their means under the transition matrix with covariance
    F P F' + Q and weight scaled by p_survive.  Every spawn kernel term is
    applied to every parent.  The births are birth_components.
    """
    f = models.motion.transition
    q = models.motion.process_noise
    p_s = models.detection.p_survive
    weights = [p_s * posterior.weights]
    means = [posterior.means @ f.T]
    covs_pred = np.einsum("ij,ajk,lk->ail", f, posterior.covs, f) + q
    covs = [0.5 * (covs_pred + np.swapaxes(covs_pred, -1, -2))]
    for term in models.spawn.components:
        weights.append(term.weight * posterior.weights)
        means.append(posterior.means + np.asarray(term.offset, dtype=float))
        covs.append(posterior.covs + np.asarray(term.cov, dtype=float))
    check_covariances(np.concatenate(covs))
    births = birth_components(models.birth, rng)
    weights.append(births.weights)
    means.append(births.means)
    covs.append(births.covs)
    return GaussianMixture._assemble(np.concatenate(weights), np.concatenate(means),
                                     np.concatenate(covs))


def birth_components(birth: "_models.BirthModel", rng: np.random.Generator) -> GaussianMixture:
    """One step's birth intensity as Gaussian components, one per sampled mean.

    The means are the draws of sample_birth_states, each component keeps
    the full birth covariance and carries weight_each, so the mass is
    mass_per_step.  BirthModel checked the birth covariance when it was
    built.
    """
    means = _models.sample_birth_states(birth, rng)
    count = means.shape[0]
    return GaussianMixture._assemble(np.full(count, birth.weight_each), means,
                                     np.broadcast_to(birth.cov, (count,) + birth.cov.shape).copy())


def gm_update(prior: GaussianMixture, scan: "_models.MeasurementScan",
              models: "_models.Models") -> GaussianMixture:
    """Corrected mixture with (1 + M) * J components for M measurements.

    The first J components are the missed-detection copies with weight
    (1 - p_detect) * w; they keep their parts.  Each measurement then
    contributes J extended Kalman corrections whose weights share one unit
    of evidence, normalized by the clutter intensity at that measurement,
    kappa(z), plus the total detection likelihood.  Each measurement's
    block is a new part, labelled after the prior's largest label in scan
    order.  This is the one corrector: the ensemble filter applies it to
    its KDE prior as engm_update.

    S, K and the posterior covariance are computed once per component,
    since none of them depends on the measurement, and the innovations,
    likelihoods, weights and corrected means of all M measurements in one
    pass over every (measurement, component) pair.
    """
    p_d = models.detection.p_detect
    meas = models.measurement
    kappa = models.clutter.intensity(scan.values, meas)
    w, m, p = prior.weights, prior.means, prior.covs
    j = len(prior)
    out_w = [(1.0 - p_d) * w]
    out_m = [m]
    out_p = [p]
    first = int(prior.parts.max(initial=-1)) + 1
    out_parts = np.concatenate([prior.parts, np.repeat(np.arange(first, first + len(scan)), j)])
    if len(scan) and j:
        # components where the measurement map cannot be linearized (the
        # radar is singular at the origin and on the z-axis) keep H = 0 and
        # zero detection likelihood: they persist only as missed detections
        ok = meas.linearizable(m)
        r = np.asarray(meas.noise_cov, dtype=float)
        h = np.zeros((j, r.shape[0], prior.dim))
        eta = np.zeros((j, r.shape[0]))
        if np.any(ok):
            h[ok] = meas.jacobian(m[ok])
            eta[ok] = meas.measure(m[ok])
        ht = np.swapaxes(h, -1, -2)
        hp = h @ p
        s = hp @ ht + r
        s = 0.5 * (s + np.swapaxes(s, -1, -2))
        sign, log_det = np.linalg.slogdet(s)
        if np.any(sign <= 0):
            raise np.linalg.LinAlgError("singular innovation covariance in mixture update")
        s_inv = np.linalg.inv(s)
        k_gain = p @ ht @ s_inv
        p_post = p - k_gain @ hp
        p_post = floor_covariances(0.5 * (p_post + np.swapaxes(p_post, -1, -2)))
        check_covariances(p_post)
        # every measurement against every component at once: innovations
        # held component-major, (J, M, z_dim), so that each component's
        # S^-1 and K apply to all its M innovations in one matmul
        innov = scan.values[None, :, :] - eta[:, None, :]
        ang = meas.angular
        if np.any(ang):
            innov[..., ang] = _models.wrap_angle(innov[..., ang])
        quad = np.sum((innov @ s_inv) * innov, axis=-1).T
        log_norm = r.shape[0] * np.log(2.0 * np.pi) + log_det
        like = np.exp(-0.5 * (quad + log_norm))
        like[:, ~ok] = 0.0
        numer = p_d * w * like
        denom = kappa + numer.sum(axis=1)
        # a measurement with no clutter and no detection likelihood gets
        # an all-zero block
        out_w.append(np.divide(numer, denom[:, None], out=np.zeros_like(numer),
                               where=denom[:, None] > 0).ravel())
        out_m.append((m + np.swapaxes(innov @ np.swapaxes(k_gain, -1, -2), 0, 1))
                     .reshape(-1, prior.dim))
        # M references to one block: the final concatenate is the only copy
        out_p.extend([p_post] * len(scan))
    return GaussianMixture._assemble(np.concatenate(out_w), np.concatenate(out_m),
                                     np.concatenate(out_p), out_parts)


def prune_merge_cap(mixture: GaussianMixture, config: GmPhdConfig) -> GaussianMixture:
    """Contain mixture growth without changing total mass.

    Components below the prune threshold are dropped (keeping at least the
    single heaviest one so the filter never goes dark).  Surviving
    components are merged greedily: the heaviest remaining component seeds
    a cluster of everything within the merge threshold, measured as
    squared Mahalanobis distance in the seed's covariance, and the cluster
    is moment-matched.  At most max_components survive, by weight.  All
    weights are then rescaled so the output mass equals the input mass.

    The kept covariances are inverted once, so each of them must be
    invertible, not only the seeds'.  Distances use each seed's inverse and
    are computed in blocks of MERGE_BLOCK (32) candidate seeds, taken in
    stable order of decreasing weight; the greedy order is unchanged.
    """
    if len(mixture) == 0:
        return mixture
    pre_mass = mixture.mass
    keep = mixture.weights >= config.prune_threshold
    if not np.any(keep):
        keep = np.zeros(len(mixture), dtype=bool)
        keep[int(np.argmax(mixture.weights))] = True
    w = mixture.weights[keep]
    m = mixture.means[keep]
    p = mixture.covs[keep]
    inv = np.linalg.inv(p)
    order = np.argsort(-w, kind="stable")
    unmerged = np.ones(len(w), dtype=bool)
    label = np.empty(len(w), dtype=np.intp)
    seeds = []
    for start in range(0, len(w), MERGE_BLOCK):
        block = order[start:start + MERGE_BLOCK]
        block = block[unmerged[block]]
        diff = m[None] - m[block, None]
        d2 = np.einsum("sjd,sjd->sj", diff @ inv[block], diff)
        for seed, within in zip(block, d2 <= config.merge_threshold):
            if unmerged[seed]:
                cluster = unmerged & within
                unmerged &= ~cluster
                label[cluster] = len(seeds)
                seeds.append(seed)
    seeds = np.array(seeds)
    merged_w, merged_m, merged_p = w[seeds], m[seeds], p[seeds]
    # a cluster of one is its seed alone; it goes through the same
    # arithmetic as a larger cluster, element by element, so the bits match
    single = np.bincount(label, minlength=len(seeds)) == 1
    sw, sm = merged_w[single, None], merged_m[single]
    mean = sw * sm / sw
    dm = sm - mean
    cov = sw[:, :, None] * (merged_p[single] + dm[:, :, None] * dm[:, None, :]) / sw[:, :, None]
    merged_m[single] = mean
    merged_p[single] = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    for k in np.flatnonzero(~single):
        cluster = np.flatnonzero(label == k)
        cw = w[cluster]
        total = cw.sum()
        mean = cw @ m[cluster] / total
        dm = m[cluster] - mean
        cov = np.einsum("a,aij->ij", cw, p[cluster] + dm[:, :, None] * dm[:, None, :]) / total
        merged_w[k] = total
        merged_m[k] = mean
        merged_p[k] = 0.5 * (cov + cov.T)
    w, m, p = merged_w, merged_m, merged_p
    if w.size > config.max_components:
        top = np.sort(np.argsort(-w, kind="stable")[:config.max_components])
        w, m, p = w[top], m[top], p[top]
    check_covariances(p)
    current = w.sum()
    if current > 0:
        w = w * (pre_mass / current)
    return GaussianMixture._assemble(w, m, p)


def gm_extract(mixture: GaussianMixture,
               config: GmPhdConfig) -> tuple[int, np.ndarray]:
    """State estimates from the managed mixture.

    In top-n mode the cardinality estimate is the mass rounded half-up and
    the estimates are the means of that many heaviest components (ties
    broken by position).  In threshold mode every component heavier than
    extraction_threshold is reported.
    """
    if config.extraction == "threshold":
        sel = mixture.weights > config.extraction_threshold
        return int(sel.sum()), mixture.means[sel].copy()
    n_hat = int(np.floor(mixture.mass + 0.5))
    if n_hat <= 0:
        return max(n_hat, 0), np.zeros((0, mixture.dim))
    take = min(n_hat, len(mixture))
    order = np.argsort(-mixture.weights, kind="stable")[:take]
    return n_hat, mixture.means[order].copy()
