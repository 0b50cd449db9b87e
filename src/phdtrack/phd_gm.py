"""Gaussian-mixture form of the intensity recursion.

Prediction pushes every component through the constant-velocity map and
appends spawn and birth components; the update runs a bank of extended
Kalman corrections, one missed-detection copy plus one corrected copy per
measurement.  Mixture growth is contained by prune / merge / cap, which
preserves total mass by rescaling.  Each stage checks the covariances it
computes and nothing else (see gaussmix).
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
    applied to every parent.  Birth components have sampled means, the
    birth covariance, and weight_each apiece.
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
    births = _models.sample_births(models.birth, rng, kind="gaussian-components")
    weights.append(births.weights)
    means.append(births.means)
    covs.append(births.covs)
    return GaussianMixture._assemble(np.concatenate(weights), np.concatenate(means),
                                     np.concatenate(covs))


def _ekf_phd_update(prior: GaussianMixture, scan: "_models.MeasurementScan",
                    models: "_models.Models") -> GaussianMixture:
    """Shared corrector: missed-detection block then one block per measurement.

    The missed-detection copies keep their parts, and each measurement's
    block is a new part, labelled after the prior's largest label in scan
    order.
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
        s = np.einsum("aij,ajk,alk->ail", h, p, h) + r
        s = 0.5 * (s + np.swapaxes(s, -1, -2))
        sign, log_det = np.linalg.slogdet(s)
        if np.any(sign <= 0):
            raise np.linalg.LinAlgError("singular innovation covariance in mixture update")
        s_inv = np.linalg.inv(s)
        k_gain = np.einsum("aij,akj,akl->ail", p, h, s_inv)
        p_post = p - np.einsum("aij,ajk,akl->ail", k_gain, h, p)
        p_post = floor_covariances(0.5 * (p_post + np.swapaxes(p_post, -1, -2)))
        check_covariances(p_post)
        ang = meas.angular
        z_dim = r.shape[0]
        log_norm = z_dim * np.log(2.0 * np.pi) + log_det
        for z, kappa_z in zip(scan.values, kappa):
            innov = z[None, :] - eta
            if np.any(ang):
                innov[:, ang] = _models.wrap_angle(innov[:, ang])
            quad = np.einsum("ai,aij,aj->a", innov, s_inv, innov)
            like = np.exp(-0.5 * (quad + log_norm))
            like[~ok] = 0.0
            numer = p_d * w * like
            denom = kappa_z + numer.sum()
            out_w.append(numer / denom if denom > 0 else np.zeros_like(numer))
            out_m.append(m + np.einsum("aij,aj->ai", k_gain, innov))
            out_p.append(p_post)
    else:
        for _ in range(len(scan)):
            out_w.append(np.zeros(0))
            out_m.append(np.zeros((0, prior.dim)))
            out_p.append(np.zeros((0, prior.dim, prior.dim)))
    return GaussianMixture._assemble(np.concatenate(out_w), np.concatenate(out_m),
                                     np.concatenate(out_p), out_parts)


def gm_update(prior: GaussianMixture, scan: "_models.MeasurementScan",
              models: "_models.Models") -> GaussianMixture:
    """Corrected mixture with (1 + M) * J components for M measurements.

    The first J components are the missed-detection copies with weight
    (1 - p_detect) * w.  Each measurement then contributes J extended
    Kalman corrections whose weights share one unit of evidence,
    normalized by the clutter intensity at that measurement, kappa(z),
    plus the total detection likelihood.
    """
    return _ekf_phd_update(prior, scan, models)


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
