"""Weighted Gaussian mixtures for intensity functions.

A multi-target intensity is carried either as a weighted Gaussian mixture
or as a weighted particle cloud.  This module owns the mixture side:
construction (including kernel density estimates over particle clouds with
a Silverman bandwidth), mass accounting, density evaluation, and drawing
samples, optionally with the component each draw came from.  A mixture is
one array-backed GaussianMixture; component i is weights[i], means[i] and
covs[i], and there is no separate per-component type.

Total mixture mass is the expected target count, so weights are free to
sum to any nonnegative value; nothing here normalizes unless a routine
says so explicitly (sampling normalizes an internal copy only).

Every covariance is checked for symmetry and positive semidefiniteness
once, by check_covariances, where it is computed.  The public
GaussianMixture constructor checks every covariance it is given; the
recursions check the covariances they compute and build their mixtures
through GaussianMixture._assemble, which trusts covariances that were
already checked, so a matrix carried from step to step is not re-checked.

The covariance floor (floor_covariances) keeps the corrector's posterior
covariances away from singularity.  Its common case, where no matrix
needs the floor, costs one batched Cholesky factorization; the
eigenvalues are computed only when that fails.  The floor does not stand
in for the check: a matrix it cannot mend still fails check_covariances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Covariance hygiene: tolerance for symmetry checks, the most negative
# eigenvalue accepted as "PSD up to roundoff", and the floor scale used
# to push near-singular matrices away from the factorization boundary.
SYMMETRY_TOL = 1e-10
EIG_TOL = -1e-10
FLOOR_SCALE = 1e-9


def floor_covariance(cov: np.ndarray) -> np.ndarray:
    """Return cov, inflated by eps*I when its smallest eigenvalue is below eps.

    eps = FLOOR_SCALE * (1 + trace(cov)/n) scales with the matrix so that
    large covariances are floored proportionally.  Well-conditioned input
    is returned unchanged (same object, no copy).
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0]
    eps = FLOOR_SCALE * (1.0 + np.trace(cov) / n)
    if np.linalg.eigvalsh(cov)[0] < eps:
        return cov + eps * np.eye(n)
    return cov


def check_covariances(covs: np.ndarray) -> None:
    """Raise ValueError unless every (n, n) matrix in covs is symmetric and PSD.

    Symmetric means no entry differs from its transpose by more than
    SYMMETRY_TOL; PSD means no eigenvalue below EIG_TOL.  An empty stack
    passes.
    """
    covs = np.asarray(covs, dtype=float)
    if len(covs) == 0:
        return
    if np.abs(covs - np.swapaxes(covs, -1, -2)).max() > SYMMETRY_TOL:
        raise ValueError("covariances must be symmetric")
    if np.linalg.eigvalsh(covs)[..., 0].min() < EIG_TOL:
        raise ValueError("a covariance has an eigenvalue below the PSD tolerance")


def floor_covariances(covs: np.ndarray) -> np.ndarray:
    """Batched floor_covariance over an array of shape (J, n, n).

    One batched Cholesky factorization of covs - eps*I shows that every
    smallest eigenvalue clears its eps, and the input is then returned
    unchanged (same object, no copy).  Only when that factorization fails
    are the eigenvalues computed, and just the matrices below their eps
    are inflated.  The two tests agree except within roundoff of eps,
    where either answer is exact to working precision.
    """
    covs = np.asarray(covs, dtype=float)
    if covs.shape[0] == 0:
        return covs
    n = covs.shape[-1]
    eps = FLOOR_SCALE * (1.0 + np.trace(covs, axis1=-2, axis2=-1) / n)
    try:
        np.linalg.cholesky(covs - eps[:, None, None] * np.eye(n))
    except np.linalg.LinAlgError:
        mask = np.linalg.eigvalsh(covs)[..., 0] < eps
        if np.any(mask):
            covs = covs.copy()
            covs[mask] += eps[mask, None, None] * np.eye(n)
    return covs


@dataclass(frozen=True)
class GaussianMixture:
    """Ordered Gaussian mixture, array-backed.

    weights: (J,), means: (J, n), covs: (J, n, n).  May be empty (J = 0),
    in which case the mass is zero.  Component order is part of the value:
    operations that do not explicitly sort preserve it.

    parts is a (J,) integer label per component naming the part of the
    intensity it belongs to: the ensemble filter keeps one part per target
    hypothesis, so that each part gets its own kernel and its own state
    estimate.  Left out, every component is in part 0.

    The constructor checks the layout and every covariance
    (check_covariances); _assemble checks the layout only.
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    parts: np.ndarray | None = None

    def __post_init__(self):
        self._check_layout()
        check_covariances(self.covs)

    @classmethod
    def _assemble(cls, weights, means, covs, parts=None) -> "GaussianMixture":
        """A mixture built from covariances that were already checked.

        The rule: every covariance passed in was checked once, by
        check_covariances, where it was computed, or comes from a mixture
        that was itself built under this rule or by the public
        constructor.  The shapes, part labels, weights and means are
        checked as the constructor checks them; only the covariance check
        is skipped.
        """
        mixture = object.__new__(cls)
        for name, value in (("weights", weights), ("means", means), ("covs", covs),
                            ("parts", parts)):
            object.__setattr__(mixture, name, value)
        mixture._check_layout()
        return mixture

    def _check_layout(self):
        """Coerce the fields to arrays and check everything but the covariances."""
        w = np.asarray(self.weights, dtype=float)
        m = np.asarray(self.means, dtype=float)
        p = np.asarray(self.covs, dtype=float)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "covs", p)
        if w.ndim != 1 or m.ndim != 2 or p.ndim != 3:
            raise ValueError("expected weights (J,), means (J, n), covs (J, n, n)")
        j, n = m.shape
        if w.shape != (j,) or p.shape != (j, n, n):
            raise ValueError(
                f"inconsistent mixture shapes: weights {w.shape}, means {m.shape}, covs {p.shape}"
            )
        parts = np.zeros(j, dtype=np.int64) if self.parts is None else np.asarray(self.parts)
        if parts.shape != (j,) or (j and not np.issubdtype(parts.dtype, np.integer)):
            raise ValueError(f"parts must be (J,) integer labels, got {parts.shape} "
                             f"of {parts.dtype}")
        object.__setattr__(self, "parts", parts.astype(np.int64, copy=False))
        if j == 0:
            return
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and >= 0")
        if not np.all(np.isfinite(m)):
            raise ValueError("means must be finite")

    def __len__(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))

    @classmethod
    def empty(cls, dim: int) -> "GaussianMixture":
        return cls(np.zeros(0), np.zeros((0, dim)), np.zeros((0, dim, dim)))


def silverman_bandwidth(dim: int, count: int) -> float:
    """Silverman rule-of-thumb bandwidth scaling for a Gaussian kernel.

    Returns (4 / (dim + 2))**(2 / (dim + 4)) * count**(-2 / (dim + 4)),
    the scalar multiplying the sample covariance in a kernel density
    estimate.  Decreases monotonically in count for fixed dim.
    """
    if dim < 1 or count < 1:
        raise ValueError(f"need dim >= 1 and count >= 1, got dim={dim}, count={count}")
    return float((4.0 / (dim + 2)) ** (2.0 / (dim + 4)) * count ** (-2.0 / (dim + 4)))


def kde_from_particles(states: np.ndarray, mass: float,
                       parts: np.ndarray | None = None) -> GaussianMixture:
    """Kernel density estimate of an intensity from equally weighted particles.

    Each of the J rows of `states` becomes one Gaussian component with
    weight mass/J.  `parts` labels each particle with its part of the
    intensity (left out: one part), and every part gets the kernel it
    would get alone, beta(dim, J_p) * SampleCov(part), with beta the
    Silverman bandwidth for the part's J_p particles and the sample
    covariance taken with the unbiased J_p - 1 denominator.  Silverman's
    rule is derived for one unimodal cloud, and a covariance taken across
    separate targets would measure the distance between them rather than
    the spread of any one.  The kernel describes the shape of the cloud,
    so it does not depend on the mass, which only scales the weights; a
    single part at mass 1 is the kernel of the single-target ensemble
    filter.  A part of at most dim particles has a singular sample
    covariance, so it uses the covariance pooled within the parts
    (denominator J - number of parts; zero when that is 0).  A covariance
    too close to singular gets the covariance floor.  The returned
    mixture carries the labels.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[0] < 1:
        raise ValueError(f"states must be (J, n) with J >= 1, got shape {states.shape}")
    if not np.isfinite(mass) or mass <= 0:
        raise ValueError(f"mass must be finite and > 0, got {mass}")
    j, n = states.shape
    parts = np.zeros(j, dtype=np.int64) if parts is None else np.asarray(parts)
    if parts.shape != (j,):
        raise ValueError(f"parts must have one label per particle, got shape {parts.shape}")
    _, inverse, counts = np.unique(parts, return_inverse=True, return_counts=True)
    centres = np.stack([np.bincount(inverse, weights=col, minlength=counts.size)
                        for col in states.T], axis=1)
    resid = states - (centres / counts[:, None])[inverse]
    dof = j - counts.size
    pooled = resid.T @ resid / dof if dof > 0 else np.zeros((n, n))
    kernels = np.empty((counts.size, n, n))
    for label, count in enumerate(counts):
        base = np.atleast_2d(np.cov(states[inverse == label].T, ddof=1)) if count > n else pooled
        kernels[label] = floor_covariance(silverman_bandwidth(n, int(count)) * base)
    check_covariances(kernels)
    return GaussianMixture._assemble(np.full(j, mass / j), states.copy(), kernels[inverse], parts)


def eval_gaussian(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """Multivariate normal density N(x; mean, cov).

    The covariance is floored first, so the density is always defined;
    near-singular covariances can still push the value to inf, which is
    returned rather than raised.
    """
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    if x.shape != mean.shape or x.ndim != 1:
        raise ValueError(f"x {x.shape} and mean {mean.shape} must be matching vectors")
    cov = floor_covariance(np.asarray(cov, dtype=float))
    n = x.shape[0]
    d = x - mean
    quad = float(d @ np.linalg.solve(cov, d))
    log_det = float(np.log(np.linalg.det(cov)))
    return float(np.exp(-0.5 * (quad + n * np.log(2.0 * np.pi) + log_det)))


def cumulative_select(weights: np.ndarray, u: float) -> int:
    """Index of the first component whose cumulative normalized weight reaches u.

    Weights are normalized on an internal copy; the input is untouched.
    Returns the smallest index l with sum(w[0..l]) >= u.  If roundoff in
    the cumulative sum leaves u beyond the final entry, the last index is
    returned.
    """
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if total <= 0:
        raise ValueError("cannot select from a mixture with zero mass")
    cum = np.cumsum(w / total)
    return int(min(np.searchsorted(cum, u, side="left"), len(w) - 1))


def sample_mixture(mixture: GaussianMixture, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` i.i.d. samples from a Gaussian mixture.

    Per sample: draw u ~ U(0, 1), pick the component by cumulative_select
    over the (internally normalized) weights, then draw from that
    component's Gaussian via a Cholesky factor.  Returns (count, dim).
    Components with zero weight are never selected.  A factorization
    failure is an error, not a silent repair.
    """
    return sample_mixture_indexed(mixture, count, rng)[1]


def sample_mixture_indexed(mixture: GaussianMixture, count: int,
                           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """sample_mixture, also returning the component index of every draw: (idx, samples)."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    n = mixture.dim
    if count == 0:
        return np.zeros(0, dtype=int), np.zeros((0, n))
    total = mixture.mass
    if total <= 0:
        raise ValueError("cannot sample from a mixture with zero mass")
    cum = np.cumsum(mixture.weights / total)
    us = rng.random(count)
    idx = np.minimum(np.searchsorted(cum, us, side="left"), len(mixture) - 1)
    z = rng.standard_normal((count, n))
    used = np.unique(idx)
    try:
        chols = np.linalg.cholesky(mixture.covs[used])
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "component covariance is not positive definite; apply the covariance floor upstream"
        ) from exc
    lookup = np.empty(len(mixture), dtype=int)
    lookup[used] = np.arange(used.size)
    scale = chols[lookup[idx]]
    return idx, mixture.means[idx] + np.einsum("kij,kj->ki", scale, z)
