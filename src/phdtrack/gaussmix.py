"""Weighted Gaussian mixtures for intensity functions.

A multi-target intensity is carried either as a weighted Gaussian mixture
or as a weighted particle cloud.  This module owns the mixture side:
construction (including kernel density estimates over particle clouds with
a Silverman bandwidth), mass accounting, and drawing samples, each with
the component it came from.  A mixture is one array-backed
GaussianMixture; component i is weights[i], means[i] and covs[i], and
there is no separate per-component type.

Total mixture mass is the expected target count, so weights are free to
sum to any nonnegative value; nothing here normalizes unless a routine
says so explicitly (sampling normalizes an internal copy only).

Every covariance is checked for symmetry and positive semidefiniteness
once, by check_covariances, where it is computed.  A check that passes
costs one batched Cholesky factorization, which is itself the proof of
the PSD test; the eigenvalues are computed only when it fails.  The public
GaussianMixture constructor checks every covariance it is given; the
recursions check the covariances they compute and build their mixtures
through GaussianMixture._assemble, which trusts covariances that were
already checked, so a matrix carried from step to step is not re-checked.

The covariance floor (floor_covariances) keeps the corrector's posterior
covariances and the KDE's kernels away from singularity.  Where it leaves
its input unchanged, its one batched Cholesky factorization has proved the
PSD test, so both check their covariances only where the floor acted; a
matrix the floor cannot mend still fails check_covariances.

Failed in-run checks raise NumericalCheckError, a ValueError, so that a
run can tell a numerical failure from a programming error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Covariance hygiene, relative to each matrix's scale 1 + |trace|/n:
# tolerance for symmetry checks, the most negative eigenvalue accepted as
# "PSD up to roundoff", and the floor used to push near-singular matrices
# away from the factorization boundary.
SYMMETRY_TOL = 1e-10
EIG_TOL = -1e-10
FLOOR_SCALE = 1e-9

# exp(x) is exactly 0.0 below about -745.13, where numpy's exp is slow
EXP_UNDERFLOW = -746.0

class NumericalCheckError(ValueError):
    """A check on the numbers a recursion computed failed: a covariance, a mass, a weight."""


def check_covariances(covs: np.ndarray) -> None:
    """Raise NumericalCheckError unless every (n, n) matrix in covs is finite, symmetric and PSD.

    Each matrix A is held to its own scale s = 1 + |trace(A)|/n, the
    floor's scale for any matrix of nonnegative trace.  Symmetric means no
    entry differs from its transpose by more than SYMMETRY_TOL * s; PSD
    means no eigenvalue below EIG_TOL * s.  One batched Cholesky
    factorization of A - EIG_TOL * s * I proves the PSD test for the whole
    stack; only when it fails are the eigenvalues computed to decide.  An
    empty stack passes.
    """
    covs = np.asarray(covs, dtype=float)
    if len(covs) == 0:
        return
    if not np.all(np.isfinite(covs)):
        raise NumericalCheckError("covariances must be finite")
    n = covs.shape[-1]
    scale = 1.0 + np.abs(np.trace(covs, axis1=-2, axis2=-1)) / n
    if np.any(np.abs(covs - np.swapaxes(covs, -1, -2)).max(axis=(-2, -1)) > SYMMETRY_TOL * scale):
        raise NumericalCheckError("covariances must be symmetric")
    try:
        np.linalg.cholesky(covs - EIG_TOL * scale[:, None, None] * np.eye(n))
    except np.linalg.LinAlgError:
        if np.any(np.linalg.eigvalsh(covs)[..., 0] < EIG_TOL * scale):
            raise NumericalCheckError(
                "a covariance has an eigenvalue below the PSD tolerance") from None


def floor_covariances(covs: np.ndarray) -> np.ndarray:
    """Inflate by eps*I each (n, n) matrix of covs whose smallest eigenvalue is below eps.

    eps = FLOOR_SCALE * (1 + trace(cov)/n) scales with each matrix, so that
    large covariances are floored proportionally.  One batched Cholesky
    factorization of covs - eps*I shows that every smallest eigenvalue
    clears its eps, and the input is then returned unchanged (same object,
    no copy).  Only when that factorization fails are the eigenvalues
    computed and the matrices below their eps inflated, in a copy even
    when none is: only a proved input comes back itself.  The two tests
    agree except within roundoff of eps, where either answer is exact.
    """
    covs = np.asarray(covs, dtype=float)
    if covs.shape[0] == 0:
        return covs
    n = covs.shape[-1]
    eps = FLOOR_SCALE * (1.0 + np.trace(covs, axis1=-2, axis2=-1) / n)
    try:
        # a NaN passes the factorization but leaves its mark in the factor
        if np.isfinite(np.linalg.cholesky(covs - eps[:, None, None] * np.eye(n))).all():
            return covs
    except np.linalg.LinAlgError:
        pass
    mask = np.linalg.eigvalsh(covs)[..., 0] < eps
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
    estimate.  Left out, every component is its own part, labelled by its
    position.

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
        parts = np.arange(j, dtype=np.int64) if self.parts is None else np.asarray(self.parts)
        if parts.shape != (j,) or (j and not np.issubdtype(parts.dtype, np.integer)):
            raise ValueError(f"parts must be (J,) integer labels, got {parts.shape} "
                             f"of {parts.dtype}")
        object.__setattr__(self, "parts", parts.astype(np.int64, copy=False))
        if j == 0:
            return
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise NumericalCheckError("weights must be finite and >= 0")
        if not np.all(np.isfinite(m)):
            raise NumericalCheckError("means must be finite")

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


def silverman_bandwidth(dim: int, count: int | np.ndarray) -> float | np.ndarray:
    """Silverman rule-of-thumb bandwidth scaling for a Gaussian kernel.

    Returns (4 / (dim + 2))**(2 / (dim + 4)) * count**(-2 / (dim + 4)),
    the scalar multiplying the sample covariance in a kernel density
    estimate, elementwise over an array of counts.  Decreasing in count.
    """
    if dim < 1 or np.any(count < 1):
        raise ValueError(f"need dim >= 1 and count >= 1, got dim={dim}, count={count}")
    return (4.0 / (dim + 2)) ** (2.0 / (dim + 4)) * count ** (-2.0 / (dim + 4))


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
    filter.  Each part's scatter is one product of the parts-by-particles
    one-hot matrix with the residuals' outer products, symmetrized.  A
    part of at most dim particles has a singular sample covariance, so it
    uses the covariance pooled within the P parts, the scatters' sum over
    J - P (zero when that is 0).  A kernel too close to singular gets the
    covariance floor, and only floored kernels are checked.  The returned
    mixture carries the labels.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[0] < 1:
        raise ValueError(f"states must be (J, n) with J >= 1, got shape {states.shape}")
    if not np.isfinite(mass) or mass <= 0:
        raise NumericalCheckError(f"mass must be finite and > 0, got {mass}")
    j, n = states.shape
    parts = np.zeros(j, dtype=np.int64) if parts is None else np.asarray(parts)
    if parts.shape != (j,):
        raise ValueError(f"parts must have one label per particle, got shape {parts.shape}")
    _, inverse, counts = np.unique(parts, return_inverse=True, return_counts=True)
    onehot = (inverse == np.arange(counts.size)[:, None]).astype(float)
    resid = states - (onehot @ states / counts[:, None])[inverse]
    scatter = (onehot @ (resid[:, :, None] * resid[:, None, :]).reshape(j, n * n)).reshape(-1, n, n)
    scatter = 0.5 * (scatter + np.swapaxes(scatter, -1, -2))
    scatter[counts <= n] = scatter.sum(axis=0) / (j - counts.size) if j > counts.size else 0.0
    scatter[counts > n] /= (counts[counts > n] - 1)[:, None, None]
    kernels = silverman_bandwidth(n, counts)[:, None, None] * scatter
    floored = floor_covariances(kernels)
    if floored is not kernels:
        check_covariances(floored)
    return GaussianMixture._assemble(np.full(j, mass / j), states.copy(), floored[inverse], parts)


def whitener(chol: np.ndarray) -> np.ndarray:
    """W = L^-1 for a (..., d, d) stack of lower factors L, row by row on the stack:
    W[i, :i + 1] = (e_i - L[i, :i] W[:i, :i + 1]) / L[i, i], and W is 0 above its diagonal."""
    eye = np.eye(chol.shape[-1])
    w = np.zeros_like(chol)
    w[..., 0, 0] = 1.0 / chol[..., 0, 0]
    for i in range(1, len(eye)):
        known = (chol[..., i, None, :i] @ w[..., :i, :i + 1])[..., 0, :]
        w[..., i, :i + 1] = (eye[i, :i + 1] - known) / chol[..., i, i, None]
    return w


def exp_skip_underflow(x: np.ndarray) -> np.ndarray:
    """np.exp(x), bit for bit, skipping the entries at or below EXP_UNDERFLOW."""
    return np.exp(x, out=np.zeros_like(x), where=~(x <= EXP_UNDERFLOW))


def select_by_weight(weights: np.ndarray, us: np.ndarray) -> np.ndarray:
    """The index each u in [0, 1] selects from nonnegative weights of positive sum.

    Among the positive weights only, u picks the first whose cumulative
    normalized weight reaches u, or the last one if roundoff leaves u
    beyond the final sum.  A zero weight is never picked, not even by
    u = 0.  Normalizing by the sum of all weights and skipping the zeros
    leaves every cumulative sum as it is over all weights, since adding
    0.0 is exact.  A sum that overflows is NumericalCheckError.
    """
    total = np.sum(weights)
    if not np.isfinite(total):
        raise NumericalCheckError(f"weights must have a finite sum, got {total}")
    live = np.flatnonzero(weights > 0)
    cum = np.cumsum(weights[live] / total)
    return live[np.minimum(np.searchsorted(cum, us, side="left"), live.size - 1)]


def sample_mixture(mixture: GaussianMixture, count: int,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw `count` i.i.d. samples from a Gaussian mixture: (idx, samples).

    Per sample: draw u ~ U(0, 1), pick a component by select_by_weight,
    then draw from that component's Gaussian via a Cholesky factor.
    Returns the component index of every draw, (count,), and the samples,
    (count, dim).  Components with zero weight are never selected.  A
    factorization failure is an error, not a silent repair.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    n = mixture.dim
    if count == 0:
        return np.zeros(0, dtype=int), np.zeros((0, n))
    if mixture.mass <= 0:
        raise NumericalCheckError("cannot sample from a mixture with zero mass")
    idx = select_by_weight(mixture.weights, rng.random(count))
    z = rng.standard_normal((count, n))
    try:
        chols = np.linalg.cholesky(mixture.covs[idx])
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "component covariance is not positive definite; apply the covariance floor upstream"
        ) from exc
    return idx, mixture.means[idx] + np.einsum("kij,kj->ki", chols, z)
