"""Particle intensity filter: prediction, reweighting, resampling, clustering."""

from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from phdtrack import models as _models
from phdtrack import phd_smc
from phdtrack.gaussmix import select_by_weight
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
    _scan_log_likelihoods,
    cluster_extract,
    kmeans_cluster,
    smc_predict,
    smc_resample,
    smc_update,
)
from phdtrack.scenario import ScenarioConfig, run_filter


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
    # the linear map is the identity on position, so kappa(z) = rate/volume
    kappa = 10.0 / (200.0 * 200.0 * 400.0)
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


def test_scan_log_likelihoods_match_scipy_for_a_full_noise_covariance():
    from scipy.stats import multivariate_normal

    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 3))
    r = a @ a.T + 0.5 * np.eye(3)
    h = np.hstack([rng.standard_normal((3, 3)), np.zeros((3, 3))])
    meas = LinearMeasurementModel(h, r)
    states = rng.standard_normal((40, 6)) * 3.0
    z = meas.measure(states[:5]) + rng.standard_normal((5, 3))
    got = _scan_log_likelihoods(states, MeasurementScan(z), meas)
    assert got.shape == (40, 5)
    want = np.array([multivariate_normal.logpdf(z, mean=eta, cov=r)
                     for eta in meas.measure(states)])
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def _scan_log_likelihoods_pair_stack(states, scan, measurement):
    """The likelihood as it was before the coordinate planes, kept as the
    oracle: (J, M, d) innovations, R inverted per scan, one small matmul
    per particle."""
    z = scan.values
    eta = measurement.measure(states)
    innov = _models.wrap_angular(z[None, :, :] - eta[:, None, :], measurement.angular)
    r = measurement.noise_cov
    # one 3x3 inverse per scan: R is fixed, and every pair shares it
    quad = np.sum((innov @ np.linalg.inv(r)) * innov, axis=-1)
    _, log_det = np.linalg.slogdet(r)
    return -0.5 * (quad + r.shape[0] * np.log(2.0 * np.pi) + log_det)


def _smc_update_pair_stack(predicted, scan, models):
    """smc_update as it was before the coordinate planes: (J, M) evidence."""
    p_d = models.detection.p_detect
    w = predicted.weights
    out = (1.0 - p_d) * w
    if len(scan) and len(predicted):
        like = np.exp(_scan_log_likelihoods_pair_stack(predicted.states, scan,
                                                        models.measurement))
        contrib = p_d * w[:, None] * like
        kappa = models.clutter.intensity(scan.values, models.measurement)
        denom = kappa + contrib.sum(axis=0)
        ok = denom > 0.0
        if np.any(ok):
            out = out + (contrib[:, ok] / denom[ok]).sum(axis=1)
    return ParticleSet(predicted.states, out)


@pytest.mark.parametrize("clutter_rate", [10.0, 0.0])
def test_coordinate_planes_match_the_pair_stack_on_reference_scans(monkeypatch, clutter_rate):
    # the reference scenario, and its clean variant, where smc tracks; a
    # log-likelihood near the underflow cut, about -745, carries its few
    # ulps of error into exp as about 1e-13 relative, hence 1e-12 on weights
    import phdtrack.scenario as scenario

    captured = []

    def capture(predicted, scan, models):
        captured.append((predicted, scan))
        return smc_update(predicted, scan, models)

    monkeypatch.setattr(scenario, "smc_update", capture)
    models = Models(clutter=ClutterModel(rate=clutter_rate))
    run_filter(ScenarioConfig(filter_kind="smc", t_end=15.0, seed=3, models=models))
    assert sum(len(scan) for _, scan in captured) > (100 if clutter_rate else 20)
    for predicted, scan in captured:
        got = _scan_log_likelihoods(predicted.states, scan, models.measurement)
        want = _scan_log_likelihoods_pair_stack(predicted.states, scan, models.measurement)
        assert got.shape == (len(predicted), len(scan))
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        assert smc_update(predicted, scan, models).weights == pytest.approx(
            _smc_update_pair_stack(predicted, scan, models).weights, rel=1e-12, abs=0.0)


def test_scan_log_likelihoods_across_the_azimuth_cut_match_scipy():
    from scipy.stats import multivariate_normal

    meas = Models().measurement
    # particles and measurements on both sides of azimuth +-pi
    ys = np.array([-0.9, -0.3, 0.0, 0.2, 0.8])
    states = np.column_stack([np.full(5, -100.0), ys, np.full(5, 20.0), np.zeros((5, 3))])
    z = meas.measure(states[[0, 4, 2]]) + np.array([[0.5, -0.015, 0.003],
                                                    [-0.4, 0.012, 0.0],
                                                    [0.0, 0.0, -0.004]])
    z[:, 1] = (z[:, 1] + np.pi) % (2 * np.pi) - np.pi
    assert z[0, 1] > 3.0 and z[1, 1] < -3.0
    got = _scan_log_likelihoods(states, MeasurementScan(z), meas)
    want = np.empty((5, 3))
    for i, eta in enumerate(meas.measure(states)):
        innov = z - eta
        innov[:, 1] = (innov[:, 1] + np.pi) % (2 * np.pi) - np.pi
        want[i] = multivariate_normal.logpdf(innov, cov=meas.noise_cov)
    assert np.abs(want).max() < 200.0
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


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
    out = smc_resample(cloud, 25, np.random.default_rng(1))
    assert len(out) == 25
    assert out.mass == pytest.approx(cloud.mass, rel=1e-12)
    assert np.ptp(out.weights) == 0.0  # uniform weights
    # every resampled state is one of the inputs
    for s in out.states:
        assert np.any(np.all(s == states, axis=1))


class StubGenerator:
    """Hands out the given uniform numbers and supports no other draw."""

    def __init__(self, us):
        self.us = np.asarray(us, dtype=float)

    def random(self, count):
        assert count == self.us.size
        return self.us


def test_resample_draws_by_select_by_weight():
    rng = np.random.default_rng(9)
    states = rng.standard_normal((30, 6))
    weights = rng.uniform(0.0, 1.0, 30)
    weights[[0, 11, 29]] = 0.0
    cloud = ParticleSet(states, weights)
    # u = 0 and u = 1 at both ends, where a zero weight sits first and last
    us = np.concatenate([[0.0, 1.0], rng.random(50)])
    out = smc_resample(cloud, us.size, StubGenerator(us))
    idx = select_by_weight(weights, us)
    assert np.array_equal(out.states, states[idx])
    assert idx[0] == 1 and idx[1] == 28
    assert not np.isin(idx, [0, 11, 29]).any()


def test_resample_upsamples():
    cloud = ParticleSet(np.arange(12.0).reshape(2, 6), np.array([0.75, 0.25]))
    out = smc_resample(cloud, 10, np.random.default_rng(3))
    assert len(out) == 10
    assert out.mass == pytest.approx(1.0, rel=1e-12)


def test_resample_rejects_bad_input():
    good = ParticleSet(np.zeros((3, 6)), np.full(3, 0.1))
    with pytest.raises(ValueError):
        smc_resample(good, 0, np.random.default_rng(0))


@pytest.mark.parametrize("count", [0, 3])
def test_zero_mass_resamples_to_the_empty_cloud(count):
    cloud = ParticleSet(np.ones((count, 6)), np.zeros(count))
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    out = smc_resample(cloud, 5, rng)
    assert len(out) == 0
    assert out.dim == 6
    # nothing was drawn
    assert rng.bit_generator.state == before
    # and the empty cloud extracts no estimate, in the state dimension
    n_hat, extracted = cluster_extract(out, rng)
    assert n_hat == 0
    assert extracted.shape == (0, 6)


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


@pytest.mark.parametrize("k, restarts, iters", [(0, 5, 20), (2, 0, 20), (2, 5, 0), (-1, 5, 20)])
def test_kmeans_rejects_bad_arguments(k, restarts, iters):
    points = np.arange(12.0).reshape(6, 2)
    with pytest.raises(ValueError, match="must be >= 1"):
        kmeans_cluster(points, k, np.random.default_rng(0), restarts=restarts, iters=iters)


# The oracle for the batched k-means: _kmeans_seed and kmeans_cluster as
# they were when each restart ran its own Lloyd loop, verbatim apart from
# the two counters in `hits`, which show the corpus reaches the degenerate
# seeding branch and the empty-cluster revival.
def reference_kmeans_seed(points, k, rng, hits):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        if d2.sum() <= 0.0:
            hits["degenerate_seed"] += 1
            centers[j:] = points[rng.integers(n, size=k - j)]
            break
        centers[j] = points[select_by_weight(d2, rng.random())]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def reference_kmeans_cluster(points, k, rng, restarts=5, iters=20, hits=None):
    hits = Counter() if hits is None else hits
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if k >= n:
        return points.copy()
    best_centers = None
    best_score = np.inf
    for _ in range(restarts):
        centers = reference_kmeans_seed(points, k, rng, hits)
        assign = None
        for _ in range(iters):
            d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
            new_assign = d2.argmin(axis=1)
            for j in range(k):
                sel = new_assign == j
                if np.any(sel):
                    centers[j] = points[sel].mean(axis=0)
                else:
                    hits["revive"] += 1
                    # revive an empty cluster at the worst-fit point
                    worst = d2[np.arange(n), new_assign].argmax()
                    centers[j] = points[worst]
                    new_assign[worst] = j
            if assign is not None and np.array_equal(assign, new_assign):
                break
            assign = new_assign
        score = np.sum((points - centers[assign]) ** 2)
        if score < best_score:
            best_score = score
            best_centers = centers.copy()
    return best_centers


def test_kmeans_matches_the_per_restart_oracle():
    # small clouds of duplicated points at scales 1e-3 to 1e3, some snapped
    # to a grid so that distances tie, in two to six coordinates (smc's
    # states have six).  numpy sums the oracle's distances and means in
    # order for 2 to 7 coordinates only: a 1-D mean, and a distance over 8
    # or more coordinates, it sums pairwise
    gen = np.random.default_rng(20251019)
    hits = Counter()
    for case in range(1500):
        n, k, dim = int(gen.integers(2, 15)), int(gen.integers(1, 5)), int(gen.integers(2, 7))
        scale = 10.0 ** gen.uniform(-3.0, 3.0)
        distinct = gen.standard_normal((int(gen.integers(1, n + 1)), dim)) * scale
        points = distinct[gen.integers(len(distinct), size=n)]
        if case % 3 == 0:
            points = np.round(points / scale) * scale
        restarts, iters = [(5, 20), (1, 20), (3, 1), (2, 2)][case % 4]
        want_rng, got_rng = np.random.default_rng(case), np.random.default_rng(case)
        want = reference_kmeans_cluster(points, k, want_rng, restarts, iters, hits)
        got = kmeans_cluster(points, k, got_rng, restarts, iters)
        assert np.array_equal(got, want), case
        assert got_rng.bit_generator.state == want_rng.bit_generator.state, case
    print(f"oracle hits: {dict(hits)}")
    assert hits["revive"] > 0
    assert hits["degenerate_seed"] > 0


@pytest.mark.parametrize("seed", [0, 7])
def test_smc_run_matches_the_per_restart_oracle(monkeypatch, seed):
    # cluster_extract calls kmeans_cluster through the module global
    config = ScenarioConfig(t_end=100.0, seed=seed, filter_kind="smc", runs=1,
                            models=Models(clutter=ClutterModel(rate=0.0)))
    got = run_filter(config)
    monkeypatch.setattr(phd_smc, "kmeans_cluster", reference_kmeans_cluster)
    want = run_filter(config)
    assert len(got) == len(want) == 100
    for g, w in zip(got, want):
        for field in fields(g):
            if field.name != "wall_time":
                assert np.array_equal(getattr(g, field.name), getattr(w, field.name)), (g.k, field)
