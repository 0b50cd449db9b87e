"""Mixture construction, covariance checks, and sampling."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phdtrack.gaussmix import (
    EIG_TOL,
    EXP_UNDERFLOW,
    FLOOR_SCALE,
    GaussianMixture,
    NumericalCheckError,
    check_covariances,
    exp_skip_underflow,
    floor_covariances,
    kde_from_particles,
    sample_mixture,
    select_by_weight,
    silverman_bandwidth,
    whitener,
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
    assert silverman_bandwidth(2, 1) == 1.0


def test_silverman_monotone_in_count():
    values = [silverman_bandwidth(6, j) for j in (1, 2, 10, 100, 1000)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_silverman_rejects_degenerate_arguments():
    with pytest.raises(ValueError):
        silverman_bandwidth(0, 10)
    with pytest.raises(ValueError):
        silverman_bandwidth(3, 0)
    with pytest.raises(ValueError):
        silverman_bandwidth(3, np.array([4, 0]))


def test_silverman_of_an_array_is_the_scalar_rule_per_count():
    counts = np.array([1, 2, 7, 250])
    assert np.array_equal(silverman_bandwidth(6, counts),
                          [silverman_bandwidth(6, int(c)) for c in counts])


# ---------------------------------------------------------------------------
# covariance flooring


def test_floor_covariance_leaves_healthy_matrix_alone():
    cov = np.diag([2.0, 3.0])
    out = floor_covariances(cov[None])[0]
    assert np.shares_memory(out, cov)
    assert np.array_equal(out, cov)


def test_floor_covariance_inflates_singular_matrix():
    cov = np.zeros((3, 3))
    out = floor_covariances(cov[None])[0]
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


def test_floor_covariances_never_passes_a_nan_as_proved():
    # a NaN can get through the factorization without an error; the floor
    # must not then return its input as proved, or a caller that checks
    # only what the floor acted on would let the NaN through
    nan = np.eye(3)[None].repeat(2, axis=0)
    nan[1, 2, 0] = nan[1, 0, 2] = np.nan
    with pytest.raises((np.linalg.LinAlgError, NumericalCheckError)):
        floored = floor_covariances(nan)
        if floored is not nan:
            check_covariances(floored)


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
        assert np.array_equal(got, floor_covariances(single[None])[0])
    # the input stack is left as it was
    assert np.array_equal(covs[1], np.zeros((3, 3)))


def test_floor_covariances_leaves_a_negative_definite_matrix_non_psd():
    covs = np.stack([np.eye(3), -np.eye(3)])
    out = floor_covariances(covs)
    assert np.linalg.eigvalsh(out[1])[0] < EIG_TOL
    with pytest.raises(ValueError, match="PSD"):
        check_covariances(out)


# ---------------------------------------------------------------------------
# the covariance check


def check_scale(covs):
    return 1.0 + np.abs(np.trace(covs, axis1=-2, axis2=-1)) / covs.shape[-1]


def with_eigenvalues(rng, lam):
    """One randomly rotated symmetric matrix per row of eigenvalues lam (count, n)."""
    q, _ = np.linalg.qr(rng.standard_normal(lam.shape + lam.shape[-1:]))
    covs = q @ (lam[:, :, None] * np.swapaxes(q, -1, -2))
    return 0.5 * (covs + np.swapaxes(covs, -1, -2))


def is_rejected(covs):
    try:
        check_covariances(covs)
    except NumericalCheckError as exc:
        assert "PSD" in str(exc)
        return True
    return False


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 300), n=st.sampled_from([1, 3, 6]),
       log_size=st.floats(-3.0, 6.0), near=st.integers(0, 5))
def test_check_agrees_with_the_eigenvalue_rule(seed, count, n, log_size, near):
    # healthy blocks of any size, plus a few whose smallest eigenvalue sits
    # just above or just below the tolerance EIG_TOL * s, with s = 1 + |trace|/n
    rng = np.random.default_rng(seed)
    lam = 10.0 ** log_size * rng.uniform(0.01, 1.0, (count, n))
    for i in rng.integers(0, count, near):
        s = 1.0 + lam[i, 1:].sum() / n
        lam[i, 0] = s * (EIG_TOL + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-7.5, -1.0))
    covs = with_eigenvalues(rng, lam)
    smallest = np.linalg.eigvalsh(covs)[:, 0]
    tol = EIG_TOL * check_scale(covs)
    assume(np.all(np.abs(smallest - tol) >= 1e-8 * check_scale(covs)))
    assert is_rejected(covs) == bool(np.any(smallest < tol))


@pytest.mark.parametrize("smallest, rejected", [(-1e-6, True), (-1e-12, False)])
def test_check_finds_one_bad_block_in_a_large_stack(smallest, rejected):
    rng = np.random.default_rng(8)
    covs = np.stack([random_spd(rng, 6) for _ in range(300)])
    lam = np.array([[smallest, 1.0, 2.0, 3.0, 4.0, 5.0]])
    covs[137] = with_eigenvalues(rng, lam)[0]
    assert is_rejected(covs) is rejected


def test_check_tolerances_follow_the_scale():
    rng = np.random.default_rng(9)
    healthy = np.stack([random_spd(rng, 3) for _ in range(20)])
    # a smallest eigenvalue, and an asymmetry, of 1e-12 and of 1e-6 times
    # the block's size: the first passes and the second fails at any size;
    # an absolute tolerance would reject 1e6 times the first
    slightly = with_eigenvalues(rng, np.array([[-1e-12, 1.0, 2.0]]))
    clearly = with_eigenvalues(rng, np.array([[-1e-6, 1.0, 2.0]]))
    skew = np.zeros((3, 3))
    skew[0, 1] = 1.0
    cases = [(healthy, None), (np.concatenate([healthy, slightly]), None),
             (np.concatenate([healthy, clearly]), "PSD"),
             (healthy + 1e-12 * skew, None), (healthy + 1e-6 * skew, "symmetric")]
    for covs, verdict in cases:
        for size in (1.0, 1e6):
            if verdict is None:
                check_covariances(size * covs)
            else:
                with pytest.raises(NumericalCheckError, match=verdict):
                    check_covariances(size * covs)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_check_rejects_a_covariance_that_is_not_finite(bad):
    covs = np.stack([np.eye(3), np.eye(3)])
    covs[1, 2, 2] = bad
    with pytest.raises(NumericalCheckError, match="finite"):
        check_covariances(covs)


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
    # left out, every component is its own part
    assert np.array_equal(unlabelled.parts, [0, 1])
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
    # two particles at 0 and 2 on a line: sample variance 2, kernel
    # beta(1, 2) * 2 = 1.7005660008343878 (30 digits, frozen)
    kde = kde_from_particles(np.array([[0.0], [2.0]]), 1.0)
    assert kde.covs == pytest.approx(np.full((2, 1, 1), 1.7005660008343878), rel=1e-12)


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


def per_part_kde_kernels(states, parts):
    """kde_from_particles' kernels, one per particle, as they were before
    every part's scatter came from one product: the pooled residual
    scatter, then np.cov of each part in a loop, and every kernel checked.
    Kept verbatim as the oracle."""
    j, n = states.shape
    _, inverse, counts = np.unique(parts, return_inverse=True, return_counts=True)
    centres = np.stack([np.bincount(inverse, weights=col, minlength=counts.size)
                        for col in states.T], axis=1)
    resid = states - (centres / counts[:, None])[inverse]
    dof = j - counts.size
    pooled = resid.T @ resid / dof if dof > 0 else np.zeros((n, n))
    kernels = np.empty((counts.size, n, n))
    for label, count in enumerate(counts):
        base = np.atleast_2d(np.cov(states[inverse == label].T, ddof=1)) if count > n else pooled
        kernels[label] = silverman_bandwidth(n, int(count)) * base
    kernels = floor_covariances(kernels)
    check_covariances(kernels)
    return kernels[inverse]


def part_layout(rng, layout, n):
    """Part labels of one of the layouts kde_from_particles distinguishes."""
    if layout == "one":
        return np.full(int(rng.integers(1, 60)), 3)
    if layout == "singletons":
        # J - P = 0: a zero pooled scatter, then the floor
        return rng.permutation(int(rng.integers(1, 12))) * 5 - 7
    sizes = rng.integers(n + 1, n + 25, size=int(rng.integers(1, 5)))
    if layout == "small":
        # one or two parts of at most n particles take the pooled kernel
        sizes = np.concatenate([sizes, rng.integers(1, n + 1, size=int(rng.integers(1, 3)))])
    labels = rng.choice(1000, size=sizes.size, replace=False)
    return rng.permutation(np.repeat(labels, sizes))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       layout=st.sampled_from(["one", "unsorted", "small", "singletons"]))
def test_kde_matches_the_per_part_loop(seed, n, layout):
    rng = np.random.default_rng(seed)
    parts = part_layout(rng, layout, n)
    spread = 10.0 ** rng.uniform(-2.0, 2.0)
    # every part a cloud at most about 100 spreads from the origin
    centres = rng.uniform(-100.0, 100.0, size=(parts.max() - parts.min() + 1, n)) * spread
    states = centres[parts - parts.min()] + spread * rng.standard_normal((parts.size, n))
    kde = kde_from_particles(states, 1.0, parts)
    want = per_part_kde_kernels(states, parts)
    assert np.array_equal(kde.covs, np.swapaxes(kde.covs, -1, -2))
    for got, cov in zip(kde.covs, want):
        assert np.all(np.abs(got - cov) <= 1e-12 * np.abs(cov).max())


def test_kde_single_particle_gets_floor():
    kde = kde_from_particles(np.array([[1.0, 2.0, 3.0]]), 2.0)
    assert len(kde) == 1
    assert np.linalg.eigvalsh(kde.covs[0])[0] > 0


def test_kde_checks_its_kernels(monkeypatch):
    import phdtrack.gaussmix as gaussmix

    monkeypatch.setattr(gaussmix, "floor_covariances",
                        lambda covs: np.broadcast_to(-np.eye(covs.shape[-1]), covs.shape))
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
# whitener


@pytest.mark.parametrize("d", range(1, 7))
def test_whitener_inverts_lower_factors(d):
    rng = np.random.default_rng(40 + d)
    a = rng.standard_normal((5, d, d))
    chol = np.linalg.cholesky(a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(d))
    for lower in (chol, chol[0]):
        w = whitener(lower)
        assert w.shape == lower.shape
        assert np.array_equal(np.triu(w, 1), np.zeros_like(w))
        inv = np.linalg.inv(lower)
        scale = np.abs(inv).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(w - inv) <= 1e-12 * scale)


# ---------------------------------------------------------------------------
# sample_mixture


class FixedDraws:
    """Generator stand-in: random() returns the given u values, standard_normal() zeros.

    With zero noise every draw lands on its component's mean, so the
    selection rule can be read off the samples.
    """

    def __init__(self, us):
        self.us = np.asarray(us, dtype=float)

    def random(self, count):
        assert count == len(self.us)
        return self.us

    def standard_normal(self, shape):
        return np.zeros(shape)


def selected(weights, us):
    """Component indices sample_mixture picks for the given u values."""
    j = len(weights)
    means = np.arange(j, dtype=float)[:, None] * 10.0
    mix = GaussianMixture(np.asarray(weights, dtype=float), means,
                          np.broadcast_to(np.eye(1), (j, 1, 1)).copy())
    idx, draws = sample_mixture(mix, len(us), FixedDraws(us))
    assert np.array_equal(draws, means[idx])
    return idx.tolist()


def test_selection_rule_hand_walk():
    # cumulative normalized weights are 0.1, 0.5, 1.0; a u on a boundary
    # picks the component whose cumulative weight reaches it
    assert selected([0.1, 0.4, 0.5], [0.05, 0.1, 0.2, 0.5, 0.7, 1.0]) == [0, 0, 1, 1, 2, 2]
    # ten weights of 0.1 sum to 0.9999999999999999, so u = 1.0 lies beyond
    # the final cumulative weight and maps to the last index
    assert selected(np.full(10, 0.1), [1.0]) == [9]


def test_selection_rule_ignores_scale_and_zero_weights():
    # cumulative normalized weights are 0, 0.25, 0.25, 1.0
    assert selected([0.0, 2.0, 0.0, 6.0], [0.1, 0.25, 0.26, 0.9, 1.0]) == [1, 1, 3, 3, 3]
    # u = 0 reaches the zero cumulative weight of a leading zero, and u
    # beyond the final sum (0.9999999999999999 here) meets the clamp to
    # the last index; neither may pick a component of zero weight
    assert selected([0.0, 2.0, 0.0, 6.0], [0.0, 0.0, 0.0]) == [1, 1, 1]
    assert selected(list(np.full(10, 0.1)) + [0.0], [1.0]) == [9]
    with pytest.raises(ValueError, match="zero mass"):
        selected(np.zeros(3), [0.5])


def test_selection_rule_rejects_weights_whose_sum_overflows():
    # 1e308 + 1e308 is inf, so every normalized weight but the last would
    # be 0 and each u would pick index 2
    with np.errstate(over="ignore"), pytest.raises(NumericalCheckError, match="finite sum"):
        select_by_weight(np.array([1e308, 1e308, 1.0]), np.array([0.1, 0.5, 0.9]))


def test_exp_skip_underflow_is_exp_bit_for_bit():
    # the grid crosses the subnormal band and the cut at EXP_UNDERFLOW
    x = np.concatenate([np.linspace(-800.0, 0.0, 100_001), [EXP_UNDERFLOW, -745.13, -745.14]])
    got = exp_skip_underflow(x)
    assert np.array_equal(got.view(np.int64), np.exp(x).view(np.int64))
    assert np.exp(EXP_UNDERFLOW) == 0.0
    grid = x[:-3].reshape(11, -1)
    assert np.array_equal(exp_skip_underflow(grid), np.exp(grid))


def test_sample_mixture_selection_frequencies():
    weights = np.array([0.2, 0.3, 0.5])
    means = np.array([[0.0], [100.0], [200.0]])
    covs = np.full((3, 1, 1), 1e-6)
    mix = GaussianMixture(weights, means, covs)
    rng = np.random.default_rng(19)
    _, draws = sample_mixture(mix, 10000, rng)
    counts = np.array([(np.abs(draws[:, 0] - m) < 50.0).sum() for m in (0.0, 100.0, 200.0)])
    assert counts.sum() == 10000
    expected = weights * 10000
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 25.0


def test_sample_mixture_never_selects_zero_weight():
    mix = GaussianMixture(np.array([0.0, 1.0]), np.array([[0.0], [50.0]]),
                          np.full((2, 1, 1), 1e-8))
    _, draws = sample_mixture(mix, 500, np.random.default_rng(2))
    assert np.all(np.abs(draws - 50.0) < 1.0)


def test_sample_mixture_moments():
    rng = np.random.default_rng(5)
    cov = np.array([[2.0, 0.3], [0.3, 0.5]])
    mix = GaussianMixture(np.array([3.0]), np.array([[1.0, -2.0]]), cov[None])
    _, draws = sample_mixture(mix, 20000, rng)
    assert draws.mean(axis=0) == pytest.approx([1.0, -2.0], abs=0.05)
    assert np.cov(draws.T, ddof=1) == pytest.approx(cov, abs=0.08)


def test_sample_mixture_deterministic_and_edge_counts():
    mix = GaussianMixture(np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None])
    idx_a, a = sample_mixture(mix, 7, np.random.default_rng(42))
    idx_b, b = sample_mixture(mix, 7, np.random.default_rng(42))
    assert np.array_equal(a, b) and np.array_equal(idx_a, idx_b)
    idx, draws = sample_mixture(mix, 0, np.random.default_rng(0))
    assert idx.shape == (0,) and draws.shape == (0, 2)
    with pytest.raises(ValueError):
        sample_mixture(mix, -1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_mixture(GaussianMixture.empty(2), 3, np.random.default_rng(0))


def test_sample_mixture_indexed_reports_the_drawn_components():
    means = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
    mix = GaussianMixture(np.array([0.5, 0.0, 1.5]), means,
                          np.broadcast_to(1e-6 * np.eye(2), (3, 2, 2)).copy())
    idx, draws = sample_mixture(mix, 200, np.random.default_rng(5))
    assert idx.shape == (200,)
    assert not np.any(idx == 1)
    assert np.abs(draws - means[idx]).max() < 0.01
