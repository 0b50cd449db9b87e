"""Mixture construction, density evaluation, and sampling."""

import numpy as np
import pytest

from phdtrack.gaussmix import (
    EIG_TOL,
    FLOOR_SCALE,
    GaussianMixture,
    check_covariances,
    cumulative_select,
    eval_gaussian,
    floor_covariance,
    floor_covariances,
    kde_from_particles,
    sample_mixture,
    sample_mixture_indexed,
    silverman_bandwidth,
)


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + n * np.eye(n))


# ---------------------------------------------------------------------------
# silverman_bandwidth


def test_silverman_frozen_values():
    # (4/(n+2))**(2/(n+4)) * J**(-2/(n+4)), evaluated at 30 digits and frozen
    assert silverman_bandwidth(6, 250) == pytest.approx(0.2885399811814427, abs=1e-15)
    assert silverman_bandwidth(6, 10) == pytest.approx(0.5492802716530589, abs=1e-15)
    assert silverman_bandwidth(6, 260) == pytest.approx(0.2862854862642724, abs=1e-15)
    assert silverman_bandwidth(2, 4) == pytest.approx(0.6299605249474366, abs=1e-15)
    assert silverman_bandwidth(1, 1) == pytest.approx(1.1219551454461995, abs=1e-15)


def test_silverman_monotone_in_count():
    values = [silverman_bandwidth(6, j) for j in (1, 2, 10, 100, 1000)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_silverman_rejects_degenerate_arguments():
    with pytest.raises(ValueError):
        silverman_bandwidth(0, 10)
    with pytest.raises(ValueError):
        silverman_bandwidth(3, 0)


# ---------------------------------------------------------------------------
# covariance flooring


def test_floor_covariance_leaves_healthy_matrix_alone():
    cov = np.diag([2.0, 3.0])
    out = floor_covariance(cov)
    assert out is cov


def test_floor_covariance_inflates_singular_matrix():
    cov = np.zeros((3, 3))
    out = floor_covariance(cov)
    assert np.linalg.eigvalsh(out)[0] > 0
    # eps = 1e-9 * (1 + trace/n) = 1e-9 for the zero matrix
    assert out == pytest.approx(1e-9 * np.eye(3))


def with_smallest_eigenvalue(rng, factor):
    """A rotated 3x3 SPD matrix whose smallest eigenvalue is factor * eps."""
    rest = np.array([2.0, 5.0])
    eps = FLOOR_SCALE * (1.0 + rest.sum() / 3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    cov = q @ np.diag(np.concatenate([[factor * eps], rest])) @ q.T
    return 0.5 * (cov + cov.T)


def test_floor_covariances_returns_a_healthy_stack_itself():
    rng = np.random.default_rng(5)
    covs = np.stack([random_spd(rng, 3) for _ in range(4)] + [with_smallest_eigenvalue(rng, 1.5)])
    assert floor_covariances(covs) is covs


def test_floor_covariances_batched_matches_scalar():
    rng = np.random.default_rng(6)
    # healthy, singular, just below eps, just above eps, healthy
    covs = np.stack([random_spd(rng, 3), np.zeros((3, 3)), with_smallest_eigenvalue(rng, 0.99),
                     with_smallest_eigenvalue(rng, 1.01), random_spd(rng, 3)])
    eps = FLOOR_SCALE * (1.0 + np.trace(covs, axis1=-2, axis2=-1) / 3)
    assert np.linalg.eigvalsh(covs[2])[0] < eps[2] < np.linalg.eigvalsh(covs[3])[0]
    out = floor_covariances(covs)
    floored = [not np.array_equal(got, cov) for got, cov in zip(out, covs)]
    assert floored == [False, True, True, False, False]
    for got, single in zip(out, covs):
        assert np.array_equal(got, floor_covariance(single))
    # the input stack is left as it was
    assert np.array_equal(covs[1], np.zeros((3, 3)))


def test_floor_covariances_leaves_a_negative_definite_matrix_non_psd():
    covs = np.stack([np.eye(3), -np.eye(3)])
    out = floor_covariances(covs)
    assert np.linalg.eigvalsh(out[1])[0] < EIG_TOL
    with pytest.raises(ValueError, match="PSD"):
        check_covariances(out)


# ---------------------------------------------------------------------------
# containers


def test_component_validation():
    def one(weight, cov):
        cov = np.asarray(cov, dtype=float)
        return GaussianMixture(np.array([weight]), np.zeros((1, 2)), cov[None])

    with pytest.raises(ValueError, match="weights"):
        one(-0.1, np.eye(2))
    with pytest.raises(ValueError, match="inconsistent"):
        one(1.0, np.eye(3))
    with pytest.raises(ValueError, match="symmetric"):
        one(1.0, [[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(ValueError, match="PSD"):
        one(1.0, [[1.0, 2.0], [2.0, 1.0]])


def test_mixture_shapes_and_mass():
    mix = GaussianMixture(np.array([0.25, 0.5]), np.zeros((2, 3)),
                          np.broadcast_to(np.eye(3), (2, 3, 3)).copy())
    assert len(mix) == 2
    assert mix.dim == 3
    assert mix.mass == pytest.approx(0.75, abs=1e-15)
    assert mix.weights[1] == 0.5


def test_empty_mixture():
    mix = GaussianMixture.empty(6)
    assert len(mix) == 0
    assert mix.dim == 6
    assert mix.mass == 0.0


def test_mixture_validation():
    with pytest.raises(ValueError):
        GaussianMixture(np.array([1.0]), np.zeros((2, 3)),
                        np.broadcast_to(np.eye(3), (2, 3, 3)).copy())
    with pytest.raises(ValueError):
        GaussianMixture(np.array([-1.0]), np.zeros((1, 3)), np.eye(3)[None])
    with pytest.raises(ValueError):
        GaussianMixture(np.array([np.nan]), np.zeros((1, 3)), np.eye(3)[None])
    asymmetric = np.eye(3)
    asymmetric[0, 1] = 1e-6
    with pytest.raises(ValueError, match="symmetric"):
        GaussianMixture(np.ones(2), np.zeros((2, 3)), np.stack([np.eye(3), asymmetric]))
    with pytest.raises(ValueError, match="PSD"):
        GaussianMixture(np.ones(2), np.zeros((2, 3)),
                        np.stack([np.eye(3), np.diag([1.0, -1.0, 1.0])]))


def test_assemble_matches_constructor():
    rng = np.random.default_rng(5)
    weights = rng.uniform(0.0, 1.0, 4)
    means = rng.standard_normal((4, 3))
    covs = np.stack([random_spd(rng, 3) for _ in range(4)])
    parts = np.array([2, 0, 2, 1], dtype=np.int32)
    for labels in (None, parts):
        public = GaussianMixture(weights, means, covs, labels)
        trusted = GaussianMixture._assemble(weights, means, covs, labels)
        for field in ("weights", "means", "covs", "parts"):
            got, expected = getattr(trusted, field), getattr(public, field)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
    empty = GaussianMixture._assemble(np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2, 2)))
    assert len(empty) == 0 and empty.parts.shape == (0,)
    # the layout is still checked; only the covariance check is skipped
    with pytest.raises(ValueError):
        GaussianMixture._assemble(np.array([-1.0]), np.zeros((1, 3)), np.eye(3)[None])
    with pytest.raises(ValueError):
        GaussianMixture._assemble(np.ones(2), np.zeros((2, 3)), covs[:2], np.array([0]))
    trusted = GaussianMixture._assemble(np.ones(1), np.zeros((1, 3)), -np.eye(3)[None])
    assert np.array_equal(trusted.covs, -np.eye(3)[None])


def test_mixture_part_labels():
    covs = np.broadcast_to(np.eye(3), (2, 3, 3)).copy()
    mix = GaussianMixture(np.ones(2), np.zeros((2, 3)), covs, np.array([3, 1], dtype=np.int32))
    assert mix.parts.dtype == np.int64
    assert np.array_equal(mix.parts, [3, 1])
    unlabelled = GaussianMixture(np.ones(2), np.zeros((2, 3)), covs)
    assert unlabelled.parts.dtype == np.int64
    assert np.array_equal(unlabelled.parts, [0, 0])
    assert GaussianMixture.empty(3).parts.shape == (0,)
    with pytest.raises(ValueError):
        GaussianMixture(np.ones(2), np.zeros((2, 3)), covs, np.array([0]))
    with pytest.raises(ValueError):
        GaussianMixture(np.ones(2), np.zeros((2, 3)), covs, np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# kde_from_particles


def test_kde_hand_case():
    # four particles at the corners of [0, 2]^2, mass 0.5:
    # sample covariance (ddof 1) is (4/3) I, so the shared covariance is
    # beta(2, 4) * (4/3) I with [0, 0] entry 0.8399473665965821
    states = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    kde = kde_from_particles(states, 0.5)
    assert len(kde) == 4
    assert kde.mass == pytest.approx(0.5, rel=1e-14)
    assert kde.weights == pytest.approx(np.full(4, 0.125))
    assert kde.means == pytest.approx(states)
    expected = 0.8399473665965821
    for cov in kde.covs:
        assert cov == pytest.approx(expected * np.eye(2), rel=1e-12)


def test_kde_matches_direct_recomputation():
    rng = np.random.default_rng(11)
    for _ in range(10):
        j = int(rng.integers(2, 40))
        n = int(rng.integers(1, 6))
        states = rng.standard_normal((j, n)) * rng.uniform(0.5, 20.0)
        mass = float(rng.uniform(0.05, 5.0))
        kde = kde_from_particles(states, mass)
        base = np.atleast_2d(np.cov(states.T, ddof=1))
        expected = silverman_bandwidth(n, j) * base
        assert kde.covs[0] == pytest.approx(expected, rel=1e-12)
        assert np.ptp(kde.covs, axis=0) == pytest.approx(np.zeros((n, n)), abs=0.0)
        assert kde.mass == pytest.approx(mass, rel=1e-12)
        # the mass scales the weights only: the same cloud gets the same kernel
        assert np.array_equal(kde_from_particles(states, 1.0).covs, kde.covs)


def test_kde_gives_each_part_its_own_kernel():
    rng = np.random.default_rng(12)
    # two well separated parts and one part too small for a 3-D covariance
    near = rng.standard_normal((9, 3)) * [1.0, 2.0, 0.5]
    far = rng.standard_normal((12, 3)) * [3.0, 0.5, 1.0] + 100.0
    few = rng.standard_normal((3, 3)) + [0.0, 50.0, 0.0]
    states = np.concatenate([near, far, few])
    parts = np.array([4] * 9 + [9] * 12 + [2] * 3)
    kde = kde_from_particles(states, 1.5, parts)
    assert np.array_equal(kde.parts, parts)
    assert kde.weights == pytest.approx(np.full(24, 1.5 / 24), rel=1e-14)
    assert kde.means == pytest.approx(states, rel=0.0, abs=0.0)
    for label, members in ((4, near), (9, far)):
        expected = silverman_bandwidth(3, len(members)) * np.cov(members.T, ddof=1)
        for cov in kde.covs[parts == label]:
            assert cov == pytest.approx(expected, rel=1e-12)
    # the small part borrows the covariance pooled within the parts
    resid = np.concatenate([near - near.mean(0), far - far.mean(0), few - few.mean(0)])
    pooled = resid.T @ resid / (24 - 3)
    for cov in kde.covs[parts == 2]:
        assert cov == pytest.approx(silverman_bandwidth(3, 3) * pooled, rel=1e-12)
    # the kernel of a part does not see the distance between parts
    assert kde.covs[0][0, 0] < 1.0
    assert kde_from_particles(states, 1.5).covs[0][0, 0] > 100.0
    # one dimension: a part of three and a part of one, which borrows the
    # pooled variance
    line = np.array([[0.0], [1.0], [3.0], [40.0]])
    kde = kde_from_particles(line, 1.0, np.array([0, 0, 0, 1]))
    for cov in kde.covs[:3]:
        assert cov == pytest.approx(silverman_bandwidth(1, 3) * np.var(line[:3], ddof=1) * np.eye(1))
    pooled = np.sum((line[:3] - line[:3].mean()) ** 2) / (4 - 2)
    assert kde.covs[3] == pytest.approx(silverman_bandwidth(1, 1) * pooled * np.eye(1))


def test_kde_with_one_part_is_the_shared_kernel():
    rng = np.random.default_rng(13)
    states = rng.standard_normal((30, 6)) * 4.0
    plain = kde_from_particles(states, 2.0)
    labelled = kde_from_particles(states, 2.0, np.full(30, 7))
    assert np.array_equal(plain.parts, np.zeros(30))
    assert np.array_equal(labelled.parts, np.full(30, 7))
    assert np.array_equal(labelled.covs, plain.covs)
    assert np.array_equal(labelled.weights, plain.weights)
    with pytest.raises(ValueError):
        kde_from_particles(states, 2.0, np.zeros(29, dtype=int))


def test_kde_single_particle_gets_floor():
    kde = kde_from_particles(np.array([[1.0, 2.0, 3.0]]), 2.0)
    assert len(kde) == 1
    assert np.linalg.eigvalsh(kde.covs[0])[0] > 0


def test_kde_checks_its_kernels(monkeypatch):
    import phdtrack.gaussmix as gaussmix

    monkeypatch.setattr(gaussmix, "floor_covariance", lambda cov: -np.eye(len(cov)))
    states = np.random.default_rng(14).standard_normal((20, 3))
    with pytest.raises(ValueError, match="PSD"):
        kde_from_particles(states, 1.0, np.repeat([0, 1], 10))


def test_kde_rejects_bad_input():
    with pytest.raises(ValueError):
        kde_from_particles(np.zeros((0, 3)), 1.0)
    with pytest.raises(ValueError):
        kde_from_particles(np.zeros((4, 3)), 0.0)
    with pytest.raises(ValueError):
        kde_from_particles(np.zeros((4, 3)), -1.0)


# ---------------------------------------------------------------------------
# eval_gaussian


def log_chol_density(x, mean, cov):
    """Independent density oracle via a Cholesky whitening in log space."""
    chol = np.linalg.cholesky(cov)
    white = np.linalg.solve(chol, x - mean)
    log_norm = -0.5 * len(x) * np.log(2.0 * np.pi) - np.log(np.diag(chol)).sum()
    return np.exp(log_norm - 0.5 * white @ white)


def test_eval_gaussian_against_cholesky_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        mean = rng.standard_normal(n) * 3.0
        cov = random_spd(rng, n, scale=float(rng.uniform(0.1, 10.0)))
        x = mean + rng.standard_normal(n) * 2.0
        got = eval_gaussian(x, mean, cov)
        assert got == pytest.approx(log_chol_density(x, mean, cov), rel=1e-10)


def test_eval_gaussian_standard_normal_origin():
    # N(0; 0, I_2) = 1 / (2 pi)
    got = eval_gaussian(np.zeros(2), np.zeros(2), np.eye(2))
    assert got == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-14)


def test_eval_gaussian_shape_mismatch():
    with pytest.raises(ValueError):
        eval_gaussian(np.zeros(2), np.zeros(3), np.eye(3))


# ---------------------------------------------------------------------------
# cumulative_select / sample_mixture


def test_cumulative_select_hand_walk():
    weights = np.array([0.1, 0.4, 0.5])
    # cumulative normalized weights are 0.1, 0.5, 1.0
    assert cumulative_select(weights, 0.05) == 0
    assert cumulative_select(weights, 0.2) == 1
    assert cumulative_select(weights, 0.7) == 2
    assert cumulative_select(weights, 1.0) == 2


def test_cumulative_select_ignores_scale_and_zero_weights():
    assert cumulative_select(np.array([0.0, 2.0, 0.0, 6.0]), 0.1) == 1
    assert cumulative_select(np.array([0.0, 2.0, 0.0, 6.0]), 0.9) == 3
    with pytest.raises(ValueError):
        cumulative_select(np.zeros(3), 0.5)


def test_sample_mixture_selection_frequencies():
    weights = np.array([0.2, 0.3, 0.5])
    means = np.array([[0.0], [100.0], [200.0]])
    covs = np.full((3, 1, 1), 1e-6)
    mix = GaussianMixture(weights, means, covs)
    rng = np.random.default_rng(19)
    draws = sample_mixture(mix, 10000, rng)
    counts = np.array([(np.abs(draws[:, 0] - m) < 50.0).sum() for m in (0.0, 100.0, 200.0)])
    assert counts.sum() == 10000
    expected = weights * 10000
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 25.0


def test_sample_mixture_never_selects_zero_weight():
    mix = GaussianMixture(np.array([0.0, 1.0]), np.array([[0.0], [50.0]]),
                          np.full((2, 1, 1), 1e-8))
    draws = sample_mixture(mix, 500, np.random.default_rng(2))
    assert np.all(np.abs(draws - 50.0) < 1.0)


def test_sample_mixture_moments():
    rng = np.random.default_rng(5)
    cov = np.array([[2.0, 0.3], [0.3, 0.5]])
    mix = GaussianMixture(np.array([3.0]), np.array([[1.0, -2.0]]), cov[None])
    draws = sample_mixture(mix, 20000, rng)
    assert draws.mean(axis=0) == pytest.approx([1.0, -2.0], abs=0.05)
    assert np.cov(draws.T, ddof=1) == pytest.approx(cov, abs=0.08)


def test_sample_mixture_deterministic_and_edge_counts():
    mix = GaussianMixture(np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None])
    a = sample_mixture(mix, 7, np.random.default_rng(42))
    b = sample_mixture(mix, 7, np.random.default_rng(42))
    assert np.array_equal(a, b)
    assert sample_mixture(mix, 0, np.random.default_rng(0)).shape == (0, 2)
    with pytest.raises(ValueError):
        sample_mixture(mix, -1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_mixture(GaussianMixture.empty(2), 3, np.random.default_rng(0))


def test_sample_mixture_indexed_reports_the_drawn_components():
    means = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
    mix = GaussianMixture(np.array([0.5, 0.0, 1.5]), means,
                          np.broadcast_to(1e-6 * np.eye(2), (3, 2, 2)).copy())
    idx, draws = sample_mixture_indexed(mix, 200, np.random.default_rng(5))
    assert idx.shape == (200,)
    assert not np.any(idx == 1)
    assert np.abs(draws - means[idx]).max() < 0.01
    # the same stream gives sample_mixture's draws exactly
    assert np.array_equal(draws, sample_mixture(mix, 200, np.random.default_rng(5)))
    idx, draws = sample_mixture_indexed(mix, 0, np.random.default_rng(5))
    assert idx.shape == (0,) and draws.shape == (0, 2)
