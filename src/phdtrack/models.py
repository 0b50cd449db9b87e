"""Motion, measurement, birth, and clutter models.

State vectors are [rx, ry, rz, vx, vy, vz]: position and velocity in a
Cartesian frame with a sensor at the origin.  Motion is constant-velocity
and linear, so every recursion advances states by the closed-form
transition matrix F(dt): the Gaussian-mixture filter moves its means with
it and the particle filters move their particles with it.  The
measurement is a radar return (range, azimuth, elevation) with additive
Gaussian noise.  Angles are radians everywhere in code; degrees
appear only at the configuration boundary.  Each fixed covariance (the
process noise, the birth covariance and the measurement noise R) is
factored once, when its model is built, and every use reuses the factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gaussmix import check_covariances, whitener

STATE_DIM = 6
TWO_PI = 2.0 * np.pi


def transition_matrix(dt: float) -> np.ndarray:
    """Closed-form constant-velocity transition matrix F(dt)."""
    f = np.eye(STATE_DIM)
    f[0, 3] = f[1, 4] = f[2, 5] = dt
    return f


def propagate_state(x: np.ndarray, dt: float) -> np.ndarray:
    """Advance constant-velocity states by dt: x @ F(dt)', position += velocity * dt.

    Accepts a single state (6,) or a batch (J, 6).  It is the same map
    F(dt) that the Gaussian-mixture prediction applies to each mean.
    """
    return np.asarray(x, dtype=float) @ transition_matrix(dt).T


def dwna_process_noise(dt: float, sigma_accel: float) -> np.ndarray:
    """Discrete white-noise-acceleration covariance for a CV model.

    sigma_accel is the 1-sigma acceleration density per axis; zero gives
    the exactly deterministic model.
    """
    i3 = np.eye(3)
    q = np.block([
        [dt ** 4 / 4.0 * i3, dt ** 3 / 2.0 * i3],
        [dt ** 3 / 2.0 * i3, dt ** 2 * i3],
    ])
    return sigma_accel ** 2 * q


@dataclass(frozen=True)
class PsdFactor:
    """A PSD covariance factored for drawing: root, the square roots of its
    eigenvalues clipped at 0, and basis, its eigenvectors transposed."""

    root: np.ndarray
    basis: np.ndarray


def sample_psd_noise(factor: PsdFactor, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` zero-mean Gaussian vectors z * root @ basis from a PSD factor.

    factor is MotionModel.noise_factor, factored once, when the model is
    built; the clipped eigenvalues let singular covariances through (the
    CV process noise has rank 3).  Consumes exactly count*n standard
    normal draws, a zero covariance too, so call sequences stay aligned
    across code paths.
    """
    z = rng.standard_normal((count, factor.root.shape[0]))
    return z * factor.root @ factor.basis


def wrap_angular(x: np.ndarray, angular: np.ndarray) -> np.ndarray:
    """Wrap the angular columns (mask `angular`) of x (..., dim) in place; returns x.

    The package's one wrap rule: an angle in [-pi, pi] is its own principal
    value and keeps its bits; only the others are remapped into [-pi, pi).
    Each column is indexed by its integer position, as a view (x may be a
    transposed view), not by a boolean mask on the last axis, which copies.
    """
    for col in np.flatnonzero(angular):
        theta = x[..., col]
        out = np.abs(theta) > np.pi
        theta[out] = (theta[out] + np.pi) % TWO_PI - np.pi
    return x


def _whiten(noise_cov: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(L, W, log_norm) with R = L L' and W = L^-1, taken by whitener as the
    corrector takes it, so that noise draws are L e and log N(z; eta, R) =
    log_norm - |W (z - eta)|^2 / 2.  A ValueError unless R is PD."""
    check_covariances(noise_cov[None])
    chol = np.linalg.cholesky(noise_cov)  # LinAlgError, a ValueError, unless R is PD
    log_norm = -0.5 * noise_cov.shape[0] * np.log(TWO_PI) - np.log(np.diag(chol)).sum()
    return chol, whitener(chol), log_norm


@dataclass(frozen=True)
class MotionModel:
    """Constant-velocity motion with optional process noise.

    dt is the one step length of a run: the truth and every filter
    advance by it.  The process noise is checked by check_covariances,
    as every covariance the package accepts, and then factored once, as
    noise_factor, for sample_psd_noise.
    """

    dt: float = 1.0
    process_noise: np.ndarray = field(default_factory=lambda: dwna_process_noise(1.0, 0.05))
    noise_factor: PsdFactor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q = np.asarray(self.process_noise, dtype=float)
        object.__setattr__(self, "process_noise", q)
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if q.shape != (STATE_DIM, STATE_DIM):
            raise ValueError(f"process noise must be {STATE_DIM}x{STATE_DIM}, got {q.shape}")
        check_covariances(q[None])
        vals, vecs = np.linalg.eigh(q)
        object.__setattr__(self, "noise_factor", PsdFactor(np.sqrt(vals.clip(0.0)), vecs.T))

    @property
    def transition(self) -> np.ndarray:
        return transition_matrix(self.dt)


class RadarMeasurementModel:
    """Range, azimuth, elevation of the position subvector, sensor at origin.

    range = |r|, azimuth = atan2(ry, rx) in (-pi, pi], elevation =
    atan2(rz, hypot(rx, ry)) in [-pi/2, pi/2].  Angle sigmas are radians.
    """

    dim = 3
    # azimuth is the single wrap-around coordinate in the measurement vector
    angular = np.array([False, True, False])

    def __init__(self, sigma_range: float = 1.0,
                 sigma_azimuth: float = np.deg2rad(0.5),
                 sigma_elevation: float = np.deg2rad(0.5)):
        if min(sigma_range, sigma_azimuth, sigma_elevation) <= 0:
            raise ValueError("measurement sigmas must be > 0")
        self.sigmas = np.array([sigma_range, sigma_azimuth, sigma_elevation])
        self.noise_cov = np.diag(self.sigmas ** 2)
        self.noise_chol, self.whitener, self.log_norm = _whiten(self.noise_cov)

    def measure(self, x: np.ndarray) -> np.ndarray:
        """Map states (..., >=3) to measurements (..., 3).  Errors at the origin."""
        x = np.asarray(x, dtype=float)
        rx, ry, rz = x[..., 0], x[..., 1], x[..., 2]
        horiz = np.hypot(rx, ry)
        rho = np.hypot(horiz, rz)
        if np.any(rho == 0.0):
            raise ValueError("measurement undefined at the sensor origin")
        return np.stack([rho, np.arctan2(ry, rx), np.arctan2(rz, horiz)], axis=-1)

    def linearizable(self, x: np.ndarray) -> np.ndarray:
        """Mask of states where measure and jacobian are both defined."""
        x = np.asarray(x, dtype=float)
        return np.hypot(x[..., 0], x[..., 1]) > 0.0

    def position(self, z: np.ndarray) -> np.ndarray:
        """Noise-free inverse map: the Cartesian position (..., 3) that measures as z."""
        z = np.asarray(z, dtype=float)
        rho, az, el = z[..., 0], z[..., 1], z[..., 2]
        horiz = rho * np.cos(el)
        return np.stack([horiz * np.cos(az), horiz * np.sin(az), rho * np.sin(el)], axis=-1)

    def volume_element(self, z: np.ndarray) -> np.ndarray:
        """|det d(position)/dz| = range**2 * cos(elevation), shape (...)."""
        z = np.asarray(z, dtype=float)
        return z[..., 0] ** 2 * np.abs(np.cos(z[..., 2]))

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Measurement Jacobian d(range, az, el)/d(state), shape (..., 3, 6).

        Velocity columns are zero.  Undefined on the z-axis (zero
        horizontal range) and at the origin.
        """
        x = np.asarray(x, dtype=float)
        rx, ry, rz = x[..., 0], x[..., 1], x[..., 2]
        s2 = rx ** 2 + ry ** 2
        s = np.sqrt(s2)
        rho2 = s2 + rz ** 2
        rho = np.sqrt(rho2)
        if np.any(s == 0.0):
            raise ValueError("jacobian undefined on the sensor z-axis")
        h = np.zeros(x.shape[:-1] + (3, STATE_DIM))
        h[..., 0, 0] = rx / rho
        h[..., 0, 1] = ry / rho
        h[..., 0, 2] = rz / rho
        h[..., 1, 0] = -ry / s2
        h[..., 1, 1] = rx / s2
        h[..., 2, 0] = -rx * rz / (rho2 * s)
        h[..., 2, 1] = -ry * rz / (rho2 * s)
        h[..., 2, 2] = s / rho2
        return h


class LinearMeasurementModel:
    """Linear map z = H x with additive Gaussian noise, for oracle tests."""

    def __init__(self, matrix: np.ndarray, noise_cov: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=float)
        self.noise_cov = np.asarray(noise_cov, dtype=float)
        self.dim = self.matrix.shape[0]
        self.angular = np.zeros(self.dim, dtype=bool)
        if self.noise_cov.shape != (self.dim, self.dim):
            raise ValueError("noise covariance does not match measurement dimension")
        self.noise_chol, self.whitener, self.log_norm = _whiten(self.noise_cov)

    def measure(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.matrix.T

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self.matrix, x.shape[:-1] + self.matrix.shape).copy()

    def linearizable(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1], dtype=bool)

    def _position_block(self) -> np.ndarray:
        """H restricted to position; z determines the position only if H = [A 0]."""
        if np.any(self.matrix[:, 3:]):
            raise ValueError("the measurement depends on velocity, so z does not "
                             "determine the position")
        return self.matrix[:, :3]

    def position(self, z: np.ndarray) -> np.ndarray:
        """The Cartesian position (..., 3) that measures as z without noise."""
        return np.linalg.solve(self._position_block(), np.asarray(z)[..., None])[..., 0]

    def volume_element(self, z: np.ndarray) -> np.ndarray:
        """|det d(position)/dz| = 1 / |det A|, constant over z."""
        z = np.asarray(z, dtype=float)
        return np.full(z.shape[:-1], 1.0 / abs(np.linalg.det(self._position_block())))


@dataclass(frozen=True)
class BirthModel:
    """Poisson birth intensity: count_per_step Gaussian draws, each with weight_each.

    The birth covariance is checked (check_covariances) once, here, for
    every filter that draws from it, and factored once, here: cov_factor
    is numpy's own eigh factor u * sqrt(|s|), for sample_birth_states.
    """

    mean: np.ndarray = field(default_factory=lambda: np.array([75.0, 75.0, 150.0, 0.0, 0.0, 0.0]))
    cov: np.ndarray = field(
        default_factory=lambda: np.diag(np.array([50.0, 50.0, 50.0, 5.0, 5.0, 5.0]) ** 2))
    count_per_step: int = 10
    weight_each: float = 0.01
    cov_factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))
        if self.count_per_step < 0 or self.weight_each < 0:
            raise ValueError("birth count and weight must be >= 0")
        if self.mean.shape != (STATE_DIM,) or self.cov.shape != (STATE_DIM, STATE_DIM):
            raise ValueError(f"birth mean must be ({STATE_DIM},) and cov ({STATE_DIM}, "
                             f"{STATE_DIM}), got {self.mean.shape} and {self.cov.shape}")
        # checked once here, so every filter that draws births gets the same answer
        check_covariances(self.cov[None])
        s, u = np.linalg.eigh(self.cov)
        object.__setattr__(self, "cov_factor", u * np.sqrt(np.abs(s)))

    @property
    def mass_per_step(self) -> float:
        return self.count_per_step * self.weight_each


@dataclass(frozen=True)
class ClutterModel:
    """Poisson clutter: uniform in a Cartesian box, observed through the radar map.

    The box density is 1/volume, so the region fixes it.  The correctors
    need the intensity in measurement space; `intensity` supplies it per
    measurement by the change of variables through the measurement map.
    kappa_override substitutes a constant measurement-space intensity in
    the update without changing how clutter is generated.
    """

    rate: float = 10.0
    region: np.ndarray = field(
        default_factory=lambda: np.array([[0.0, 200.0], [0.0, 200.0], [0.0, 400.0]]))
    kappa_override: float | None = None

    def __post_init__(self):
        region = np.asarray(self.region, dtype=float)
        object.__setattr__(self, "region", region)
        if self.rate < 0:
            raise ValueError("clutter rate must be >= 0")
        if region.shape != (3, 2) or np.any(region[:, 1] <= region[:, 0]):
            raise ValueError("clutter region must be a proper 3-D box")

    def intensity(self, z: np.ndarray, measurement) -> np.ndarray:
        """Clutter intensity kappa(z) in measurement space at each row of z, shape (M,).

        Box clutter is mapped through the measurement model without noise,
        so kappa(z) = rate / volume * |det d(position)/dz| where the
        position that measures as z lies in the box, and 0 elsewhere: for
        the radar that is rate / volume * range**2 * cos(elevation).
        With kappa_override set, that constant is returned everywhere.
        """
        z = np.asarray(z, dtype=float)
        if self.kappa_override is not None:
            return np.full(z.shape[0], float(self.kappa_override))
        pos = measurement.position(z)
        lo, hi = self.region[:, 0], self.region[:, 1]
        inside = np.all((pos >= lo) & (pos <= hi), axis=-1)
        # rate times the box density 1/volume, the product the seeded
        # outputs were recorded with (rate / volume can differ in the last bit)
        density = 1.0 / float(np.prod(hi - lo))
        return np.where(inside, self.rate * density * measurement.volume_element(z), 0.0)


@dataclass(frozen=True)
class DetectionSurvival:
    """State-independent detection and survival probabilities."""

    p_detect: float = 0.98
    p_survive: float = 0.99

    def __post_init__(self):
        if not (0.0 <= self.p_detect <= 1.0 and 0.0 <= self.p_survive <= 1.0):
            raise ValueError("probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class MeasurementScan:
    """One time step's unlabeled measurements, shape (M, 3); M may be zero."""

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if v.size == 0:
            v = v.reshape(0, v.shape[-1] if v.ndim == 2 and v.shape[-1] else 3)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Models:
    """Bundle of everything a filter needs to know about the world."""

    motion: MotionModel = field(default_factory=MotionModel)
    measurement: object = field(default_factory=RadarMeasurementModel)
    birth: BirthModel = field(default_factory=BirthModel)
    clutter: ClutterModel = field(default_factory=ClutterModel)
    detection: DetectionSurvival = field(default_factory=DetectionSurvival)


def sample_clutter(model: ClutterModel, rng: np.random.Generator,
                   measurement: RadarMeasurementModel) -> np.ndarray:
    """Poisson-many clutter points, uniform in the box, mapped through the radar."""
    count = int(rng.poisson(model.rate))
    if count == 0:
        return np.zeros((0, measurement.dim))
    lo = model.region[:, 0]
    hi = model.region[:, 1]
    points = lo + rng.random((count, 3)) * (hi - lo)
    return measurement.measure(points)


def sample_birth_states(model: BirthModel, rng: np.random.Generator) -> np.ndarray:
    """count_per_step draws from the birth Gaussian, shape (count, 6).

    The draws are mean + z @ cov_factor', with the covariance factored
    once, when the model is built; they and the generator's state after
    them equal rng.multivariate_normal(mean, cov, count, method="eigh").
    """
    if model.count_per_step == 0:
        return np.zeros((0, STATE_DIM))
    z = rng.standard_normal((model.count_per_step, STATE_DIM))
    return model.mean + z @ model.cov_factor.T

