"""Gaussian-mixture form of the intensity recursion.

Prediction pushes every component through the constant-velocity map
F(dt) and appends birth components (birth_components, which the
ensemble filter shares); the update, gm_update, runs a bank of
extended Kalman corrections, one missed-detection copy plus one corrected
copy per measurement, and is the corrector of the ensemble filter too.
Mixture growth is contained by prune / merge / cap, which preserves total
mass by rescaling, under the scenario's budget.  The extraction,
gm_extract, is the ensemble filter's too.  Each stage checks the
covariances it computes and nothing else (see gaussmix).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import models as _models
from .gaussmix import (GaussianMixture, check_covariances, exp_skip_underflow, floor_covariances,
                       whitener)

# Candidate pairs per batch of merge distances: a batch takes unmerged
# seeds, in greedy order, until their windows hold this many unmerged
# candidates (always at least one seed).  A pair holds about 0.4 kB of
# temporaries, so a batch about 1.6 MB, whatever the mixture's size.
MERGE_PAIRS = 4096
# Relative widening of each seed's x-window.  A computed distance is at
# least its first whitened coordinate squared, up to the roundings of the
# difference, division and square; with those of the window's half-width
# they move its edge by under 1e-15 of it, a thousandth of this slack.
WINDOW_SLACK = 1e-12


@dataclass(frozen=True)
class GmPhdConfig:
    """Mixture management knobs: pruning and merging thresholds.

    The cap is the scenario's budget.  Extraction has no knobs: gm_extract
    takes the round(mass) heaviest parts, the cardinality rule of every filter.
    """

    prune_threshold: float = 1e-5
    merge_threshold: float = 4.0

    def __post_init__(self):
        if self.prune_threshold < 0 or self.merge_threshold < 0:
            raise ValueError("thresholds must be >= 0")


def gm_predict(posterior: GaussianMixture, models: "_models.Models",
               rng: np.random.Generator) -> GaussianMixture:
    """Predicted mixture: survivors, then sampled births.

    Survivors keep their means under the transition matrix with covariance
    F P F' + Q and weight scaled by p_survive.  The births are
    birth_components.
    """
    f = models.motion.transition
    q = models.motion.process_noise
    p_s = models.detection.p_survive
    covs_pred = f @ posterior.covs @ f.T + q
    covs = 0.5 * (covs_pred + np.swapaxes(covs_pred, -1, -2))
    check_covariances(covs)
    births = birth_components(models.birth, rng)
    return GaussianMixture._assemble(np.concatenate([p_s * posterior.weights, births.weights]),
                                     np.concatenate([posterior.means @ f.T, births.means]),
                                     np.concatenate([covs, births.covs]))


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

    S = H P H' + R is factored once per component, as it does not depend
    on the measurement: its Cholesky factor L gives log|S| and rejects an
    S that is not positive definite (LinAlgError), and W = L^-1 (whitener)
    the quadratic forms |W v|^2 and, with G = (W H P)' = P H' W', the
    means m + G (W v) and the covariance P - G G', symmetrized.  Where the
    floor leaves that unchanged, the floor's own factorization has proved
    it PSD, so it is checked only where the floor acted.  The innovations,
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
        hp = h @ p
        chol = np.linalg.cholesky(hp @ np.swapaxes(h, -1, -2) + r)  # reads S's lower triangle
        log_norm = r.shape[0] * np.log(2.0 * np.pi) + 2.0 * np.log(chol.diagonal(0, -2, -1)).sum(-1)
        wht = whitener(chol)
        gt = wht @ hp  # G' = W H P, one (z_dim, n) block per component
        p_post = p - np.swapaxes(gt, -1, -2) @ gt
        p_sym = 0.5 * (p_post + np.swapaxes(p_post, -1, -2))
        p_post = floor_covariances(p_sym)
        if p_post is not p_sym:
            check_covariances(p_post)
        # every measurement against every component at once, component-major
        # (J, M, z_dim): each component's W and G take its M innovations in one matmul
        innov = _models.wrap_angular(scan.values[None, :, :] - eta[:, None, :], meas.angular)
        white = innov @ np.swapaxes(wht, -1, -2)
        quad = np.sum(white * white, axis=-1).T
        like = exp_skip_underflow(-0.5 * (quad + log_norm))
        like[:, ~ok] = 0.0
        numer = p_d * w * like
        denom = kappa + numer.sum(axis=1)
        # a measurement with no clutter and no detection likelihood gets
        # an all-zero block
        out_w.append(np.divide(numer, denom[:, None], out=np.zeros_like(numer),
                               where=denom[:, None] > 0).ravel())
        out_m.append((m + np.swapaxes(white @ gt, 0, 1)).reshape(-1, prior.dim))
        # M references to one block: the final concatenate is the only copy
        out_p.extend([p_post] * len(scan))
    return GaussianMixture._assemble(np.concatenate(out_w), np.concatenate(out_m),
                                     np.concatenate(out_p), out_parts)


def prune_merge_cap(mixture: GaussianMixture, config: GmPhdConfig,
                    budget: int) -> GaussianMixture:
    """Contain mixture growth without changing total mass.

    A mixture of zero mass is the zero intensity and becomes the empty
    mixture.  Otherwise components below the prune threshold, and those of
    zero weight, are dropped, keeping at least the single heaviest one so
    that the mass survives the rescaling.  Surviving components are merged
    greedily: the heaviest remaining component seeds a cluster of
    everything within the merge threshold, measured as squared Mahalanobis
    distance in the seed's covariance, and the cluster is moment-matched.
    At most `budget` survive, by weight.  All weights are then rescaled so
    the output mass equals the input mass, and every survivor is its own
    part.

    Every kept covariance is factored once, by one batched Cholesky
    factorization, so each must be positive definite, not only the seeds':
    one that is not PSD raises check_covariances' NumericalCheckError
    ("PSD"), and a singular PSD one the factorization's LinAlgError.  The
    distance of j from seed s is d2 = |L_s^-1 (m_j - m_s)|^2, L_s the seed's
    factor, found by forward substitution.  Its first whitened coordinate is
    (x_j - x_s) / L_s[0, 0], so d2 <= threshold needs |x_j - x_s| <=
    sqrt(threshold * P_s[0, 0]) (for an SPD P, d2 >= dx^2 / P_xx by
    Cauchy-Schwarz): each seed tests only the components in that window
    of the first coordinate, widened by WINDOW_SLACK, which two binary
    searches over the means sorted by x find.  Seeds are taken in stable
    order of decreasing weight, in batches of about MERGE_PAIRS candidate
    pairs; the greedy order is unchanged.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    pre_mass = mixture.mass
    if pre_mass <= 0:
        return GaussianMixture.empty(mixture.dim)
    # a zero weight is dropped even at threshold 0: its moment match is 0/0
    keep = (mixture.weights >= config.prune_threshold) & (mixture.weights > 0)
    if not np.any(keep):
        keep = np.zeros(len(mixture), dtype=bool)
        keep[int(np.argmax(mixture.weights))] = True
    w = mixture.weights[keep]
    m = mixture.means[keep]
    p = mixture.covs[keep]
    try:
        chol = np.linalg.cholesky(p)
    except np.linalg.LinAlgError:
        check_covariances(p)  # names a matrix that is not PSD
        raise
    seeds, label = _greedy_clusters(w, m, chol, config.merge_threshold)
    seeds = np.array(seeds)
    label = np.array(label)
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
    if w.size > budget:
        top = np.sort(np.argsort(-w, kind="stable")[:budget])
        w, m, p = w[top], m[top], p[top]
    check_covariances(p)
    w = w * (pre_mass / w.sum())
    return GaussianMixture._assemble(w, m, p)


def _greedy_clusters(w, m, chol, threshold):
    """prune_merge_cap's seeds, in greedy order, and each component's cluster number."""
    n, d = m.shape
    x = m[:, 0]
    by_x = x.argsort(kind="stable")
    reach = chol[:, 0, 0] * (threshold ** 0.5 * (1.0 + WINDOW_SLACK))
    lo = x[by_x].searchsorted(x - reach, "left")
    hi = x[by_x].searchsorted(x + reach, "right")
    # one row per coordinate or factor entry, the pairs along it: the means,
    # each factor's diagonal, then below it, column j over L[j, j]
    diag = chol.reshape(n, d * d)[:, ::d + 1]
    planes = np.concatenate([m.T, diag.T, (chol / diag[:, None, :]).T[_below_diagonal(d)]])
    unmerged = bytearray(b"\x01") * n
    live = np.frombuffer(unmerged, dtype=bool)
    label, seeds = [0] * n, []
    # seeds still to visit, in greedy order; order[i]'s unmerged candidates are pos[a[i]:b[i]]
    order = (-w).argsort(kind="stable")
    pos, a, b = by_x, lo[order], hi[order]
    while True:
        lens = b - a
        ends = lens.cumsum()
        take = max(1, int(ends.searchsorted(MERGE_PAIRS, "right")))
        batch, lens, ends = order[:take], lens[:take], ends[:take]
        cp = pos[(b[:take] - ends).repeat(lens) + np.arange(ends[-1])]
        # forward substitution, column by column, every pair of the batch at once
        lp = planes.take(batch.repeat(lens), axis=1)
        r = planes[:d].take(cp, axis=1) - lp[:d]
        o = 2 * d
        for i in range(d - 1):
            r[i + 1:] -= lp[o:o + d - 1 - i] * r[i]
            o += d - 1 - i
        r /= lp[d:2 * d]
        hit = (np.einsum("ip,ip->p", r, r) <= threshold).nonzero()[0]
        near = cp[hit].tolist()
        start = 0
        for s, stop in zip(batch.tolist(), hit.searchsorted(ends).tolist()):
            if unmerged[s]:
                label[s] = len(seeds)
                unmerged[s] = 0
                for j in near[start:stop]:
                    if unmerged[j]:
                        label[j] = len(seeds)
                        unmerged[j] = 0
                seeds.append(s)
            start = stop
        order = order[take:]
        order = order[live[order]]
        if not order.size:
            return seeds, label
        in_x = live[by_x]
        pos = by_x[in_x]
        cum = np.concatenate(([0], in_x.cumsum()))
        a, b = cum[lo[order]], cum[hi[order]]


@functools.cache
def _below_diagonal(d):
    """Column and row of each entry below the diagonal of a d x d matrix, column by column."""
    return np.nonzero(np.tri(d, k=-1, dtype=bool).T)


def gm_extract(mixture: GaussianMixture) -> tuple[int, np.ndarray]:
    """Cardinality and state estimates from a mixture's parts.

    The cardinality estimate is the mass rounded half-up; the estimates
    are the weighted means of that many heaviest parts of positive mass
    (ties broken by label), one per target hypothesis.  An unlabelled
    mixture, such as this filter's managed one, has one part per
    component, so they are the means of its heaviest components, bit for
    bit.  Zero estimated targets yields an empty (0, n) array.
    """
    n_hat = int(np.floor(mixture.mass + 0.5))
    if n_hat == 0:
        return 0, np.zeros((0, mixture.dim))
    labels = mixture.parts - mixture.parts.min()
    part_mass = np.bincount(labels, weights=mixture.weights)
    heaviest = np.argsort(-part_mass, kind="stable")[:n_hat]
    heaviest = heaviest[part_mass[heaviest] > 0.0]
    # weights over part mass first, so a one-component part weighs its mean by 1.0
    share = np.where(labels == heaviest[:, None], mixture.weights, 0.0)
    return n_hat, share / part_mass[heaviest, None] @ mixture.means
