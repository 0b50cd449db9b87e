"""Particle (sequential Monte Carlo) form of the intensity recursion.

The intensity is a weighted particle cloud whose total weight is the
expected target count.  Prediction is a bootstrap step: survivors are
propagated through the motion model with process noise and reweighted by
the survival probability, then birth particles are appended.  The update
reweights particles only; resampling restores the fixed particle budget,
or empties the cloud when the corrected mass is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models as _models
from .gaussmix import NumericalCheckError, exp_skip_underflow, select_by_weight


@dataclass(frozen=True)
class ParticleSet:
    """Weighted particles: states (J, n), weights (J,) >= 0.  Mass = sum of weights."""

    states: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "weights", weights)
        if states.ndim != 2 or weights.ndim != 1 or states.shape[0] != weights.shape[0]:
            raise ValueError(
                f"states {states.shape} and weights {weights.shape} must share one length")
        if states.shape[0]:
            if not np.all(np.isfinite(states)):
                raise NumericalCheckError("particle states must be finite")
            if not np.all(np.isfinite(weights)) or np.any(weights < 0):
                raise NumericalCheckError("particle weights must be finite and >= 0")

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))


def smc_predict(posterior: ParticleSet, models: "_models.Models",
                rng: np.random.Generator) -> ParticleSet:
    """Bootstrap prediction: propagated survivors followed by birth particles.

    Survivor weights are scaled by the survival probability; birth
    particles are drawn from the birth Gaussian with weight_each apiece,
    so the predicted mass is p_survive * mass + birth mass.
    """
    motion = models.motion
    survivors = _models.propagate_state(posterior.states, motion.dt)
    survivors = survivors + _models.sample_psd_noise(motion.noise_factor, len(posterior), rng)
    birth_states = _models.sample_birth_states(models.birth, rng)
    states = np.concatenate([survivors, birth_states])
    weights = np.concatenate([
        models.detection.p_survive * posterior.weights,
        np.full(birth_states.shape[0], models.birth.weight_each),
    ])
    return ParticleSet(states, weights)


def _scan_log_likelihoods(states: np.ndarray, scan: "_models.MeasurementScan",
                          measurement) -> np.ndarray:
    """log N(z; h(x), R) for every particle/measurement pair, shape (J, M).

    The innovations are d coordinate planes (M, J), particles innermost;
    one GEMM by R's whitener whitens them all, and the result is a
    transposed view of the (M, J) log-likelihoods.
    """
    # contiguous rows: a strided eta makes the plane subtraction ~3x slower
    eta = np.ascontiguousarray(measurement.measure(states).T)
    innov = scan.values.T[:, :, None] - eta[:, None, :]
    _models.wrap_angular(innov.T, measurement.angular)
    white = measurement.whitener @ innov.reshape(len(innov), -1)
    quad = np.einsum("ij,ij->j", white, white)
    return (measurement.log_norm - 0.5 * quad).reshape(len(scan), -1).T


def smc_update(predicted: ParticleSet, scan: "_models.MeasurementScan",
               models: "_models.Models") -> ParticleSet:
    """Reweight particles against one scan; states are untouched.

    Each particle keeps (1 - p_detect) of its weight and gains, per
    measurement, its share of that measurement's unit of evidence,
    normalized against the clutter intensity at that measurement,
    kappa(z), plus the cloud's total likelihood.  A measurement that no
    particle (and no clutter) can explain contributes nothing rather than
    dividing by zero.  The evidence is held as (M, J), particles innermost.
    """
    p_d = models.detection.p_detect
    w = predicted.weights
    out = (1.0 - p_d) * w
    if len(scan) and len(predicted):
        log_like = _scan_log_likelihoods(predicted.states, scan, models.measurement).T
        contrib = exp_skip_underflow(log_like) * (p_d * w)
        kappa = models.clutter.intensity(scan.values, models.measurement)
        denom = kappa + contrib.sum(axis=1)
        ok = denom > 0.0
        if np.any(ok):
            out = out + (contrib[ok] / denom[ok, None]).sum(axis=0)
    return ParticleSet(predicted.states, out)


def smc_resample(updated: ParticleSet, count: int, rng: np.random.Generator) -> ParticleSet:
    """Resample multinomially to `count` particles with uniform weights mass/count.

    Particles are drawn by select_by_weight, as mixture components are.
    Zero total mass is the empty intensity: the result is the empty cloud,
    and nothing is drawn.  The next prediction's births reseed it.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    mass = updated.mass
    if mass <= 0:
        return ParticleSet(np.zeros((0, updated.dim)), np.zeros(0))
    idx = select_by_weight(updated.weights, rng.random(count))
    return ParticleSet(updated.states[idx], np.full(count, mass / count))


def _kmeans_seed(coords: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding over the coordinate planes (dim, n) of the points: each center
    after the first is drawn by select_by_weight over the squared distances so far."""
    n = coords.shape[1]
    centers = np.empty((k, len(coords)))
    centers[0] = coords[:, rng.integers(n)]
    d2 = np.full(n, np.inf)
    for j in range(1, k):
        d2 = np.minimum(d2, np.sum((coords - centers[j - 1][:, None]) ** 2, axis=0))
        if d2.sum() <= 0.0:
            centers[j:] = coords[:, rng.integers(n, size=k - j)].T
            break
        centers[j] = coords[:, select_by_weight(d2, rng.random())]
    return centers


def kmeans_cluster(points: np.ndarray, k: int, rng: np.random.Generator,
                   restarts: int = 5, iters: int = 20) -> np.ndarray:
    """Cluster points into k centers; best of `restarts` seeded Lloyd runs.

    All restarts are seeded first, in order; Lloyd's iterations draw
    nothing, and run the live restarts as one batch until each one's
    assignment repeats.  A squared distance sums its coordinates in order,
    a center its points in order over their count.  The first restart of
    least finite score wins; NumericalCheckError if none is finite.
    """
    if min(k, restarts, iters) < 1:
        raise ValueError(f"k, restarts and iters must be >= 1, got {k}, {restarts}, {iters}")
    points = np.asarray(points, dtype=float)
    n, dim = points.shape
    if k >= n:
        return points.copy()
    coords = points.T.copy()
    centers = np.stack([_kmeans_seed(coords, k, rng) for _ in range(restarts)])
    assign = np.full((restarts, n), -1)
    live = np.arange(restarts)
    for _ in range(iters):
        # (live, k, n): the coordinate axis first, so it is summed in order
        diff = coords[:, None, None] - centers[live].transpose(2, 0, 1)[..., None]
        d2 = np.sum(diff ** 2, axis=0)
        new_assign = d2.argmin(axis=1)
        moved = np.any(new_assign != assign[live], axis=1)  # a repeat's centers are its means
        live, new_assign, d2 = live[moved], new_assign[moved], d2[moved]
        if not live.size:
            break
        bins = np.arange(live.size)[:, None] * k + new_assign
        counts = np.bincount(bins.ravel(), minlength=live.size * k).reshape(-1, k)
        sums = np.bincount((bins[:, :, None] * dim + np.arange(dim)).ravel(),
                           np.tile(points.ravel(), live.size), live.size * k * dim)
        means = sums.reshape(-1, k, dim) / np.maximum(counts, 1)[:, :, None]
        for row in np.flatnonzero((counts == 0).any(axis=1)):
            labels = new_assign[row]
            for j in range(k):
                if not np.any(labels == j):
                    # revive an empty cluster at the worst-fit point
                    labels[d2[row, labels, np.arange(n)].argmax()] = j
                means[row, j] = points[labels == j].mean(axis=0)
        centers[live], assign[live] = means, new_assign
    scores = np.sum((points - centers[np.arange(restarts)[:, None], assign]) ** 2, axis=(1, 2))
    scores[~np.isfinite(scores)] = np.inf
    best = scores.argmin()
    if scores[best] == np.inf:
        raise NumericalCheckError("k-means: no restart has a finite score")
    return centers[best]


def cluster_extract(particles: ParticleSet,
                    rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """State estimates from a uniformly weighted cloud.

    The cardinality estimate is the total mass rounded half-up; that many
    k-means cluster centers are returned as the state estimates (every
    particle when there are fewer).  Zero estimated targets, as from the
    empty cloud, yields an empty (0, n) state array.  k-means draws only
    its seeds, restart by restart, however its Lloyd iterations batch.
    """
    n_hat = int(np.floor(particles.mass + 0.5))
    if n_hat == 0:
        return 0, np.zeros((0, particles.dim))
    return n_hat, kmeans_cluster(particles.states, n_hat, rng)
