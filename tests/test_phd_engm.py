"""Ensemble Gaussian-mixture intensity filter."""

import numpy as np
import pytest

from phdtrack.gaussmix import (
    GaussianMixture,
    floor_covariances,
    sample_mixture,
    silverman_bandwidth,
)
from phdtrack.models import (
    BirthModel,
    ClutterModel,
    DetectionSurvival,
    MeasurementScan,
    Models,
    MotionModel,
    propagate_state,
)
from phdtrack import phd_engm, phd_gm
from phdtrack.phd_engm import (
    EngmPhdState,
    engm_extract,
    engm_predict,
    engm_resample,
    engm_update,
)
from phdtrack.phd_smc import ParticleSet
from reference_engmf import reference_engmf_step


def uniform_cloud(states, mass):
    states = np.asarray(states, dtype=float)
    j = states.shape[0]
    return EngmPhdState(ParticleSet(states, np.full(j, mass / j)))


def reduction_models():
    """Single always-alive always-seen target, no clutter, no births."""
    return Models(
        birth=BirthModel(count_per_step=0),
        clutter=ClutterModel(rate=0.0),
        detection=DetectionSurvival(p_detect=1.0, p_survive=1.0),
    )


def test_state_validation():
    states = np.zeros((4, 6))
    with pytest.raises(ValueError):
        EngmPhdState(ParticleSet(states, np.array([0.1, 0.1, 0.1, 0.2])))
    state = uniform_cloud(states + 50.0, 2.0)
    assert state.particles.mass == pytest.approx(2.0)
    assert np.array_equal(state.parts, np.zeros(4))
    cloud = ParticleSet(states, np.full(4, 0.25))
    assert np.array_equal(EngmPhdState(cloud, np.array([1, 1, 3, 3])).parts, [1, 1, 3, 3])
    with pytest.raises(ValueError):
        EngmPhdState(cloud, np.array([1, 1, 3]))
    with pytest.raises(ValueError):
        EngmPhdState(cloud, np.array([1.0, 1.0, 3.0, 3.0]))


def test_predict_gives_an_unlabelled_cloud_one_kernel_then_births():
    rng = np.random.default_rng(12)
    states = np.concatenate([
        rng.standard_normal((10, 6)) * 2.0 + [60, 60, 60, 0.5, 0.5, 2.0],
        rng.standard_normal((10, 6)) * 2.0 + [110, 105, 55, -0.5, -0.5, 2.0],
    ])
    state = uniform_cloud(states, 2.0)
    models = Models()
    predicted = engm_predict(state, models, rng)
    # twenty survivors wrapped as one KDE, then the ten birth components
    assert len(predicted) == 30
    assert predicted.mass == pytest.approx(0.99 * 2.0 + 0.1, rel=1e-12)
    assert predicted.weights[:20] == pytest.approx(np.full(20, 0.99 * 2.0 / 20), rel=1e-12)
    assert predicted.weights[20:] == pytest.approx(np.full(10, 0.01), rel=1e-12)
    # an unlabelled cloud is one part: every survivor shares one covariance,
    # the Silverman-scaled sample covariance of the propagated cloud,
    # whatever mass it carries
    survivors = predicted.covs[:20]
    assert np.ptp(survivors, axis=0) == pytest.approx(np.zeros((6, 6)), abs=0.0)
    beta = silverman_bandwidth(6, 20)
    expected = beta * np.cov(predicted.means[:20].T, ddof=1)
    assert survivors[0] == pytest.approx(floor_covariances(expected[None])[0], rel=1e-12)
    # births keep the full birth covariance and form a part of their own
    for cov in predicted.covs[20:]:
        assert cov == pytest.approx(models.birth.cov, rel=1e-12)
    assert np.array_equal(predicted.parts, [0] * 20 + [1] * 10)


def test_predict_gives_each_part_its_own_kernel():
    rng = np.random.default_rng(18)
    states = np.concatenate([
        rng.standard_normal((12, 6)) * 0.5 + [60, 60, 60, 0.5, 0.5, 2.0],
        rng.standard_normal((12, 6)) * 0.5 + [110, 105, 55, -0.5, -0.5, 2.0],
    ])
    parts = np.array([5] * 12 + [8] * 12)
    state = EngmPhdState(ParticleSet(states, np.full(24, 2.0 / 24)), parts)
    models = Models(birth=BirthModel(count_per_step=0))
    predicted = engm_predict(state, models, rng)
    assert np.array_equal(predicted.parts, parts)
    for label in (5, 8):
        members = predicted.means[parts == label]
        expected = silverman_bandwidth(6, 12) * np.cov(members.T, ddof=1)
        for cov in predicted.covs[parts == label]:
            assert cov == pytest.approx(floor_covariances(expected[None])[0], rel=1e-12)
    # a kernel the size of one target, not of the gap between the two
    assert predicted.covs[0][0, 0] < 1.0


def test_predict_without_births_wraps_survivors_directly():
    rng = np.random.default_rng(13)
    states = rng.standard_normal((15, 6)) + [80, 80, 80, 0, 0, 1.0]
    state = uniform_cloud(states, 1.0)
    models = Models(
        motion=MotionModel(process_noise=np.zeros((6, 6))),
        birth=BirthModel(count_per_step=0),
        detection=DetectionSurvival(p_detect=0.98, p_survive=0.95),
    )
    predicted = engm_predict(state, models, rng)
    assert len(predicted) == 15
    assert predicted.mass == pytest.approx(0.95, rel=1e-12)
    # zero process noise: the component means are exactly the propagated cloud
    assert predicted.means == pytest.approx(propagate_state(states, 1.0), rel=1e-12)
    beta = silverman_bandwidth(6, 15)
    expected = beta * np.cov(predicted.means.T, ddof=1)
    assert predicted.covs[0] == pytest.approx(floor_covariances(expected[None])[0], rel=1e-12)
    # the same cloud carried at a tenth of the mass gets the same kernel
    light = engm_predict(uniform_cloud(states, 0.1), models, np.random.default_rng(13))
    assert light.mass == pytest.approx(0.095, rel=1e-12)
    assert np.array_equal(light.covs, predicted.covs)


def test_predict_zero_survivor_mass_returns_only_births():
    rng = np.random.default_rng(14)
    state = uniform_cloud(rng.standard_normal((8, 6)), 0.0)
    predicted = engm_predict(state, Models(), rng)
    assert len(predicted) == 10
    assert predicted.mass == pytest.approx(0.1, rel=1e-12)
    # no survivors and no births: the empty mixture
    empty = EngmPhdState(ParticleSet(np.zeros((0, 6)), np.zeros(0)))
    predicted = engm_predict(empty, Models(birth=BirthModel(count_per_step=0)), rng)
    assert len(predicted) == 0 and predicted.dim == 6


def test_update_matches_mixture_corrector_layout():
    rng = np.random.default_rng(15)
    states = rng.standard_normal((12, 6)) * 2.0 + [70, 70, 70, 0, 0, 1.0]
    state = uniform_cloud(states, 1.0)
    models = Models()
    predicted = engm_predict(state, models, rng)
    z = models.measurement.measure(np.array([70.0, 70.0, 70.0, 0, 0, 0]))
    corrected = engm_update(predicted, MeasurementScan(z[None]), models)
    j = len(predicted)
    assert len(corrected) == 2 * j
    assert corrected.weights[:j] == pytest.approx((1 - 0.98) * predicted.weights, rel=1e-12)
    block = corrected.weights[j:]
    assert 0.0 < block.sum() <= 1.0 + 1e-12
    # posterior mass decomposes into missed plus per-measurement evidence
    assert corrected.mass == pytest.approx(0.02 * predicted.mass + block.sum(), rel=1e-12)


def test_resample_uniform_and_mass_preserving():
    rng = np.random.default_rng(16)
    means = rng.standard_normal((20, 6))
    posterior = GaussianMixture(rng.uniform(0.0, 0.3, 20), means,
                                np.broadcast_to(0.01 * np.eye(6), (20, 6, 6)).copy())
    state = engm_resample(posterior, 50, np.random.default_rng(1))
    assert len(state.particles) == 50
    assert state.particles.mass == pytest.approx(posterior.mass, rel=1e-12)
    assert np.ptp(state.particles.weights) == 0.0
    with pytest.raises(ValueError):
        engm_resample(posterior, 0, np.random.default_rng(0))


@pytest.mark.parametrize("posterior", [
    GaussianMixture.empty(6),
    GaussianMixture(np.zeros(3), np.zeros((3, 6)), np.broadcast_to(np.eye(6), (3, 6, 6)).copy()),
], ids=["empty", "zero-weights"])
def test_zero_mass_resamples_to_the_empty_cloud(posterior):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    state = engm_resample(posterior, 10, rng)
    assert len(state.particles) == 0
    assert state.particles.dim == 6
    assert state.parts.shape == (0,)
    # nothing was drawn
    assert rng.bit_generator.state == before


def test_extract_takes_weighted_means_of_the_heaviest_parts():
    # the corrected mixture's parts are the clusters: two heavy parts around
    # x = 10 and x = 90 and one light part that the rounded mass leaves out
    rng = np.random.default_rng(17)
    means = np.concatenate([
        rng.standard_normal((30, 6)) * 0.2 + [10, 0, 0, 0, 0, 0],
        rng.standard_normal((30, 6)) * 0.2 + [90, 0, 0, 0, 0, 0],
        rng.standard_normal((5, 6)) * 0.2 + [50, 0, 0, 0, 0, 0],
    ])
    weights = np.concatenate([np.full(30, 1.1 / 30), rng.uniform(0.5, 1.5, 30), np.full(5, 0.04)])
    weights[30:60] *= 1.0 / weights[30:60].sum()
    parts = np.array([3] * 30 + [1] * 30 + [7] * 5)
    posterior = GaussianMixture(weights, means,
                                np.broadcast_to(np.eye(6), (65, 6, 6)).copy(), parts)
    n_hat, extracted = engm_extract(posterior)
    assert n_hat == 2
    assert extracted.shape == (2, 6)
    # heaviest first, each the weighted mean of its part
    for got, label in zip(extracted, (3, 1)):
        members = parts == label
        expected = weights[members] @ means[members] / weights[members].sum()
        assert got == pytest.approx(expected, rel=1e-12)
    xs = np.sort(extracted[:, 0])
    assert xs[0] == pytest.approx(10.0, abs=0.5)
    assert xs[1] == pytest.approx(90.0, abs=0.5)
    # a mixture built without labels has one part per component: the
    # estimates are its two heaviest means, bit for bit
    n_hat, extracted = engm_extract(GaussianMixture(weights, means, posterior.covs))
    assert n_hat == 2
    assert np.array_equal(extracted, means[np.argsort(-weights, kind="stable")[:2]])
    light = GaussianMixture(np.full(3, 0.1), means[:3], posterior.covs[:3], parts[:3])
    n_hat, extracted = engm_extract(light)
    assert n_hat == 0 and extracted.shape == (0, 6)


def test_extraction_and_correction_are_the_plain_filters():
    # one extraction rule and one corrector, under this filter's stage names
    assert phd_engm.engm_extract is phd_gm.gm_extract
    assert phd_engm.engm_update is phd_gm.gm_update


def test_update_and_resample_carry_parts():
    rng = np.random.default_rng(19)
    states = np.concatenate([
        rng.standard_normal((15, 6)) + [70, 70, 70, 0, 0, 1.0],
        rng.standard_normal((15, 6)) + [120, 40, 60, 0, 0, 1.0],
    ])
    parts = np.array([2] * 15 + [6] * 15)
    state = EngmPhdState(ParticleSet(states, np.full(30, 2.0 / 30)), parts)
    models = Models()
    predicted = engm_predict(state, models, rng)
    assert np.array_equal(predicted.parts, np.concatenate([parts, np.full(10, 7)]))
    targets = propagate_state(states[[0, 15]], 1.0)
    scan = MeasurementScan(models.measurement.measure(targets))
    corrected = engm_update(predicted, scan, models)
    j = len(predicted)
    # missed-detection copies keep their parts; each measurement opens one
    assert np.array_equal(corrected.parts[:j], predicted.parts)
    assert np.array_equal(corrected.parts[j:], [8] * j + [9] * j)
    n_hat, extracted = engm_extract(corrected)
    assert n_hat == 2
    assert np.sort(np.linalg.norm(extracted[:, :3] - targets[:, None, :3], axis=2).min(axis=1))[-1] < 5.0
    # every particle joins the part of the component it was drawn from,
    # renumbered by rank: the two measurement parts are the last two labels
    following = engm_resample(corrected, 40, np.random.default_rng(3))
    idx, draws = sample_mixture(corrected, 40, np.random.default_rng(3))
    assert np.array_equal(following.particles.states, draws)
    drawn = np.unique(corrected.parts[idx])
    assert np.array_equal(drawn[following.parts], corrected.parts[idx])
    assert drawn[-2:].tolist() == [8, 9]
    assert np.isin(following.parts, [drawn.size - 2, drawn.size - 1]).sum() >= 35


def test_resample_draws_through_the_module_sampler(monkeypatch):
    # engm draws through phd_engm's global, so a wrapper put there, as the
    # benchmark's tracer does, sees every draw it makes
    rng = np.random.default_rng(20)
    posterior = GaussianMixture(rng.uniform(0.1, 1.0, 6), rng.standard_normal((6, 6)),
                                np.broadcast_to(0.01 * np.eye(6), (6, 6, 6)).copy(),
                                np.array([4, 4, 9, 1, 9, 4]))
    expected = engm_resample(posterior, 30, np.random.default_rng(21))
    calls = []

    def counting(*args):
        calls.append(args)
        return sample_mixture(*args)

    monkeypatch.setattr(phd_engm, "sample_mixture", counting)
    got = engm_resample(posterior, 30, np.random.default_rng(21))
    assert len(calls) == 1
    assert np.array_equal(got.particles.states, expected.particles.states)
    assert np.array_equal(got.parts, expected.parts)


def test_resample_renumbers_parts_by_rank():
    # labels far apart, out of order, and one part that is never drawn
    labels = np.array([40, 40, 5, 1234, 17, 17, 999])
    weights = np.array([0.3, 0.2, 0.4, 0.5, 0.1, 0.3, 0.0])
    means = np.arange(7.0)[:, None] * np.ones(6)
    posterior = GaussianMixture(weights, means, np.broadcast_to(1e-4 * np.eye(6), (7, 6, 6)).copy(),
                                labels)
    state = engm_resample(posterior, 200, np.random.default_rng(4))
    idx, _ = sample_mixture(posterior, 200, np.random.default_rng(4))
    # the zero-weight part 999 is never drawn, so four parts remain, in
    # the order of their labels
    assert np.array_equal(np.unique(state.parts), np.arange(4))
    rank = {5: 0, 17: 1, 40: 2, 1234: 3}
    assert state.parts.tolist() == [rank[label] for label in labels[idx]]


def test_reduction_one_step_parity():
    """Intensity recursion equals the reference filter in the degenerate setup."""
    models = reduction_models()
    meas = models.measurement
    x_true = np.array([60.0, 50.0, 70.0, 0.5, -0.5, 2.0])
    rng_init = np.random.default_rng(60)
    states = x_true + rng_init.standard_normal((30, 6))
    z = meas.measure(propagate_state(x_true, 1.0))
    scan = MeasurementScan(z[None])

    rng_a = np.random.default_rng(61)
    state = uniform_cloud(states, 1.0)
    predicted = engm_predict(state, models, rng_a)
    corrected = engm_update(predicted, scan, models)
    next_state = engm_resample(corrected, 30, rng_a)

    _, reference = reference_engmf_step(states, z, models, np.random.default_rng(61))

    assert corrected.mass == pytest.approx(1.0, abs=1e-12)
    assert next_state.particles.states == pytest.approx(reference, abs=1e-9)
