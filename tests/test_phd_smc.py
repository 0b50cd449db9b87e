"""Particle intensity filter: prediction, reweighting, resampling, clustering."""

from dataclasses import replace

import numpy as np
import pytest

from phdtrack.models import (
    BirthModel,
    ClutterModel,
    DetectionSurvival,
    LinearMeasurementModel,
    MeasurementScan,
    Models,
    MotionModel,
    dwna_process_noise,
)
from phdtrack.phd_smc import (
    ParticleSet,
    cluster_extract,
    kmeans_cluster,
    smc_predict,
    smc_resample,
    smc_update,
)


def linear_models(p_detect=1.0, clutter_rate=0.0, birth_count=0):
    h = np.hstack([np.eye(3), np.zeros((3, 3))])
    return Models(
        motion=MotionModel(dt=1.0, process_noise=dwna_process_noise(1.0, 0.05)),
        measurement=LinearMeasurementModel(h, 0.25 * np.eye(3)),
        birth=BirthModel(count_per_step=birth_count),
        clutter=ClutterModel(rate=clutter_rate),
        detection=DetectionSurvival(p_detect=p_detect, p_survive=0.99),
    )


def test_particle_set_validation():
    with pytest.raises(ValueError):
        ParticleSet(np.zeros((3, 6)), np.zeros(2))
    with pytest.raises(ValueError):
        ParticleSet(np.zeros((2, 6)), np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        ParticleSet(np.full((1, 6), np.nan), np.array([1.0]))
    empty = ParticleSet(np.zeros((0, 6)), np.zeros(0))
    assert len(empty) == 0
    assert empty.mass == 0.0


@pytest.mark.filterwarnings("error")
def test_predict_cannot_reach_a_bad_birth_covariance():
    # smc draws its births straight from the birth Gaussian, where numpy only
    # warns about a covariance that is not PSD; the birth model rejects it
    # before any draw, however the model is built
    bad = np.diag([2500.0, 2500.0, 2500.0, 25.0, 25.0, -25.0])
    cloud = ParticleSet(np.tile([50.0, 50.0, 50.0, 1.0, 0.0, 0.0], (5, 1)), np.full(5, 0.3))
    with pytest.raises(ValueError, match="PSD"):
        smc_predict(cloud, Models(birth=BirthModel(cov=bad)), np.random.default_rng(2))
    with pytest.raises(ValueError, match="PSD"):
        replace(Models().birth, cov=bad)


def test_predict_mass_and_layout():
    models = Models()
    rng = np.random.default_rng(2)
    cloud = ParticleSet(np.tile([50.0, 50.0, 50.0, 1.0, 0.0, 0.0], (5, 1)),
                        np.full(5, 0.3))
    predicted = smc_predict(cloud, models, rng)
    assert len(predicted) == 15  # survivors plus ten births
    assert predicted.mass == pytest.approx(0.99 * cloud.mass + 0.1, rel=1e-12)
    assert predicted.weights[:5] == pytest.approx(np.full(5, 0.99 * 0.3))
    assert predicted.weights[5:] == pytest.approx(np.full(10, 0.01))
    # survivors moved by about one velocity step (plus small process noise)
    assert predicted.states[:5, 0] == pytest.approx(51.0, abs=0.5)


def test_update_single_particle_hand_value():
    models = linear_models(p_detect=0.9, clutter_rate=10.0)
    kappa = models.clutter.kappa
    x = np.array([50.0, 60.0, 70.0, 0.0, 0.0, 0.0])
    w = 0.8
    cloud = ParticleSet(x[None], np.array([w]))
    z = x[:3] + np.array([0.3, -0.2, 0.1])
    updated = smc_update(cloud, MeasurementScan(z[None]), models)
    innov = z - x[:3]
    g = np.exp(-0.5 * innov @ np.linalg.solve(0.25 * np.eye(3), innov))
    g *= (2 * np.pi) ** -1.5 * np.linalg.det(0.25 * np.eye(3)) ** -0.5
    expected = (1 - 0.9) * w + 0.9 * w * g / (kappa + 0.9 * w * g)
    assert updated.weights[0] == pytest.approx(expected, rel=1e-12)
    assert updated.states is cloud.states or np.array_equal(updated.states, cloud.states)


def test_update_uses_clutter_intensity_at_each_measurement():
    # radar measurements near r = 47 m and r = 370 m: kappa(z) differs ~40x
    models = Models()
    meas = models.measurement
    states = np.array([[30.0, 30.0, 20.0, 0.0, 0.0, 0.0],
                       [31.0, 29.0, 21.0, 0.0, 0.0, 0.0],
                       [150.0, 150.0, 300.0, 0.0, 0.0, 0.0]])
    w = np.array([0.1, 0.2, 0.3])
    cloud = ParticleSet(states, w)
    z = meas.measure(states[[0, 2]]) + np.array([[2.5, 0.02, -0.015], [-3.0, 0.01, 0.012]])
    updated = smc_update(cloud, MeasurementScan(z), models)

    p_d = 0.98
    kappa = 10.0 / (200.0 * 200.0 * 400.0) * z[:, 0] ** 2 * np.cos(z[:, 2])
    assert kappa[1] > 20.0 * kappa[0]
    r = meas.noise_cov
    g = np.empty((3, 2))
    for i in range(3):
        for m in range(2):
            d = z[m] - meas.measure(states[i])
            g[i, m] = np.exp(-0.5 * d @ np.linalg.solve(r, d)) / np.sqrt(np.linalg.det(2 * np.pi * r))
    contrib = p_d * w[:, None] * g
    expected = (1 - p_d) * w + (contrib / (kappa + contrib.sum(axis=0))).sum(axis=1)
    assert updated.weights == pytest.approx(expected, rel=1e-9)
    flat = (1 - p_d) * w + (contrib / (6.25e-7 + contrib.sum(axis=0))).sum(axis=1)
    assert abs(flat[2] / expected[2] - 1.0) > 0.05


def test_update_unexplained_measurement_is_ignored():
    # with zero clutter a measurement no particle can explain must not
    # produce a divide-by-zero or NaN
    models = linear_models(p_detect=0.9, clutter_rate=0.0)
    cloud = ParticleSet(np.array([[50.0, 50.0, 50.0, 0.0, 0.0, 0.0]]), np.array([0.5]))
    z_far = np.array([[5e6, 5e6, 5e6]])
    updated = smc_update(cloud, MeasurementScan(z_far), models)
    assert np.isfinite(updated.weights).all()
    assert updated.weights[0] == pytest.approx(0.1 * 0.5, rel=1e-12)


def test_update_empty_scan():
    models = Models()
    cloud = ParticleSet(np.tile([50.0, 50.0, 50.0, 0, 0, 0], (4, 1)), np.full(4, 0.25))
    updated = smc_update(cloud, MeasurementScan(np.zeros((0, 3))), models)
    assert updated.mass == pytest.approx((1 - 0.98) * 1.0, rel=1e-12)


def test_update_weighted_mean_tracks_kalman_posterior():
    # single target, linear measurements, certain detection, no clutter:
    # the reweighted cloud's mean should estimate the Kalman posterior mean
    models = linear_models(p_detect=1.0, clutter_rate=0.0)
    rng = np.random.default_rng(77)
    x0 = np.array([40.0, 50.0, 60.0, 0.5, -0.5, 1.0])
    p0 = np.diag([16.0, 16.0, 16.0, 1.0, 1.0, 1.0])
    j = 4000
    states = x0 + rng.standard_normal((j, 6)) @ np.linalg.cholesky(p0).T
    cloud = ParticleSet(states, np.full(j, 1.0 / j))
    z = x0[:3] + np.array([1.0, -0.5, 0.25])
    updated = smc_update(cloud, MeasurementScan(z[None]), models)
    wn = updated.weights / updated.mass
    got = wn @ updated.states
    # closed-form posterior mean for prior N(x0, p0)
    h = models.measurement.matrix
    r = models.measurement.noise_cov
    gain = p0 @ h.T @ np.linalg.inv(h @ p0 @ h.T + r)
    expected = x0 + gain @ (z - h @ x0)
    # standard error of a weighted mean: sqrt(sum wn_i^2 * var); use the
    # empirical weighted per-axis variance as the variance proxy
    spread = updated.states - got
    se = np.sqrt(np.sum(wn ** 2) * np.sum(wn[:, None] * spread ** 2, axis=0))
    assert np.all(np.abs(got - expected) < 4.0 * se + 1e-9)


def test_resample_preserves_mass_and_count():
    rng = np.random.default_rng(5)
    states = rng.standard_normal((40, 6))
    weights = rng.uniform(0.0, 1.0, 40)
    cloud = ParticleSet(states, weights)
    for method in ("multinomial", "systematic"):
        out = smc_resample(cloud, 25, np.random.default_rng(1), method)
        assert len(out) == 25
        assert out.mass == pytest.approx(cloud.mass, rel=1e-12)
        assert np.ptp(out.weights) == 0.0  # uniform weights
        # every resampled state is one of the inputs
        for s in out.states:
            assert np.any(np.all(s == states, axis=1))


def test_resample_upsamples():
    cloud = ParticleSet(np.arange(12.0).reshape(2, 6), np.array([0.75, 0.25]))
    out = smc_resample(cloud, 10, np.random.default_rng(3))
    assert len(out) == 10
    assert out.mass == pytest.approx(1.0, rel=1e-12)


def test_systematic_resampling_is_stratified():
    # equal weights and count == J: systematic resampling keeps each
    # particle exactly once regardless of the rng draw
    states = np.arange(30.0).reshape(5, 6)
    cloud = ParticleSet(states, np.full(5, 0.2))
    out = smc_resample(cloud, 5, np.random.default_rng(9), "systematic")
    assert np.array_equal(np.sort(out.states[:, 0]), states[:, 0])


def test_resample_rejects_bad_input():
    cloud = ParticleSet(np.zeros((3, 6)), np.zeros(3))
    with pytest.raises(ValueError):
        smc_resample(cloud, 5, np.random.default_rng(0))
    good = ParticleSet(np.zeros((3, 6)), np.full(3, 0.1))
    with pytest.raises(ValueError):
        smc_resample(good, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        smc_resample(good, 5, np.random.default_rng(0), "bogus")


def test_kmeans_single_cluster_returns_mean():
    rng = np.random.default_rng(6)
    points = rng.standard_normal((50, 3)) + [10.0, -5.0, 2.0]
    centers = kmeans_cluster(points, 1, np.random.default_rng(0))
    assert centers.shape == (1, 3)
    assert centers[0] == pytest.approx(points.mean(axis=0), rel=1e-12)


def test_kmeans_recovers_separated_clusters():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((60, 2)) * 0.5
    b = rng.standard_normal((40, 2)) * 0.5 + [100.0, 0.0]
    points = np.concatenate([a, b])
    centers = kmeans_cluster(points, 2, np.random.default_rng(1))
    centers = centers[np.argsort(centers[:, 0])]
    assert centers[0] == pytest.approx(a.mean(axis=0), abs=0.3)
    assert centers[1] == pytest.approx(b.mean(axis=0), abs=0.3)


def test_kmeans_k_at_least_n_returns_points():
    points = np.arange(6.0).reshape(3, 2)
    out = kmeans_cluster(points, 3, np.random.default_rng(0))
    assert np.array_equal(out, points)
    out = kmeans_cluster(points, 7, np.random.default_rng(0))
    assert np.array_equal(out, points)


def test_cluster_extract_rounding():
    rng = np.random.default_rng(8)
    states = rng.standard_normal((100, 6))
    n_hat, extracted = cluster_extract(ParticleSet(states, np.full(100, 0.023)), rng)
    assert n_hat == 2  # mass 2.3 rounds down
    assert extracted.shape == (2, 6)
    n_hat, extracted = cluster_extract(ParticleSet(states, np.full(100, 0.016)), rng)
    assert n_hat == 2  # mass 1.6 rounds up
    n_hat, extracted = cluster_extract(ParticleSet(states, np.full(100, 0.004)), rng)
    assert n_hat == 0
    assert extracted.shape == (0, 6)


def test_cluster_extract_caps_centers_at_cloud_size():
    rng = np.random.default_rng(9)
    states = np.zeros((3, 6))
    n_hat, extracted = cluster_extract(ParticleSet(states, np.full(3, 2.0)), rng)
    assert n_hat == 6
    assert extracted.shape == (3, 6)
