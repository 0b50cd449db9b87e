"""Gaussian-mixture intensity filter: prediction, correction, management."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from phdtrack.gaussmix import GaussianMixture, floor_covariance
from phdtrack.models import (
    BirthModel,
    ClutterModel,
    DetectionSurvival,
    LinearMeasurementModel,
    MeasurementScan,
    Models,
    MotionModel,
    RadarMeasurementModel,
    SpawnComponent,
    SpawnModel,
    dwna_process_noise,
    sample_birth_states,
    wrap_angle,
)
from phdtrack import phd_gm
from phdtrack.phd_gm import (
    GmPhdConfig,
    birth_components,
    gm_extract,
    gm_predict,
    gm_update,
    prune_merge_cap,
)


def single_target_models():
    """Linear measurements, certain detection/survival, no clutter, no births."""
    h = np.hstack([np.eye(3), np.zeros((3, 3))])
    return Models(
        motion=MotionModel(dt=1.0, process_noise=dwna_process_noise(1.0, 0.05)),
        measurement=LinearMeasurementModel(h, 0.25 * np.eye(3)),
        birth=BirthModel(count_per_step=0),
        clutter=ClutterModel(rate=0.0),
        detection=DetectionSurvival(p_detect=1.0, p_survive=1.0),
    )


def kalman_step(x, p, f, q, h, r, z):
    """Plain Kalman filter step, written independently of the package."""
    x = f @ x
    p = f @ p @ f.T + q
    s = h @ p @ h.T + r
    gain = p @ h.T @ np.linalg.inv(s)
    x = x + gain @ (z - h @ x)
    p = (np.eye(len(x)) - gain @ h) @ p
    return x, 0.5 * (p + p.T)


def test_single_target_matches_kalman_filter():
    models = single_target_models()
    f = models.motion.transition
    q = models.motion.process_noise
    h = models.measurement.matrix
    r = models.measurement.noise_cov
    rng = np.random.default_rng(100)
    x_true = np.array([50.0, 40.0, 60.0, 0.5, -0.3, 1.0])
    x_kf = np.array([45.0, 45.0, 55.0, 0.0, 0.0, 0.0])
    p_kf = np.diag([25.0, 25.0, 25.0, 1.0, 1.0, 1.0])
    posterior = GaussianMixture(np.array([1.0]), x_kf[None].copy(), p_kf[None].copy())
    for _ in range(50):
        x_true = f @ x_true
        z = h @ x_true + 0.5 * rng.standard_normal(3)
        predicted = gm_predict(posterior, models, rng)
        corrected = gm_update(predicted, MeasurementScan(z[None]), models)
        x_kf, p_kf = kalman_step(x_kf, p_kf, f, q, h, r, z)
        # with certain detection and zero clutter all evidence lands on the
        # single measurement-corrected component
        i = int(np.argmax(corrected.weights))
        assert corrected.weights[i] == pytest.approx(1.0, abs=1e-12)
        assert corrected.mass == pytest.approx(1.0, abs=1e-12)
        assert corrected.means[i] == pytest.approx(x_kf, abs=1e-9)
        assert corrected.covs[i] == pytest.approx(p_kf, abs=1e-9)
        posterior = prune_merge_cap(corrected, GmPhdConfig())


def test_predict_mass_and_structure():
    models = Models()
    rng = np.random.default_rng(3)
    prior = GaussianMixture(
        np.array([0.6, 0.9]),
        np.array([[60.0, 60.0, 60.0, 0.0, 0.0, 1.0], [120.0, 110.0, 70.0, -0.4, 0.2, 1.5]]),
        np.broadcast_to(np.diag([9.0, 9.0, 9.0, 1.0, 1.0, 1.0]), (2, 6, 6)).copy(),
    )
    predicted = gm_predict(prior, models, rng)
    # survivors plus ten birth components
    assert len(predicted) == 12
    p_s = models.detection.p_survive
    assert predicted.mass == pytest.approx(p_s * prior.mass + 0.1, rel=1e-12)
    # survivor means follow the transition matrix
    f = models.motion.transition
    assert predicted.means[:2] == pytest.approx(prior.means @ f.T)
    # survivor covariances gain the process noise
    expected_cov = f @ prior.covs[0] @ f.T + models.motion.process_noise
    assert predicted.covs[0] == pytest.approx(expected_cov, rel=1e-12)
    assert predicted.weights[2:] == pytest.approx(np.full(10, 0.01))


def test_predict_with_spawn_terms():
    spawn = SpawnModel(components=(
        SpawnComponent(0.2, np.array([5.0, 0.0, 0.0, 0.0, 0.0, 0.0]), np.eye(6)),
    ))
    models = Models(spawn=spawn)
    prior = GaussianMixture(np.array([0.5]),
                            np.array([[50.0, 50.0, 50.0, 0.0, 0.0, 0.0]]),
                            np.eye(6)[None] * 4.0)
    predicted = gm_predict(prior, models, np.random.default_rng(0))
    # one survivor, one spawn term, ten births
    assert len(predicted) == 12
    expected_mass = (models.detection.p_survive + 0.2) * 0.5 + 0.1
    assert predicted.mass == pytest.approx(expected_mass, rel=1e-12)
    # the spawn component sits at parent mean plus offset with summed covariance
    assert predicted.means[1] == pytest.approx(prior.means[0] + np.array([5, 0, 0, 0, 0, 0]))
    assert predicted.covs[1] == pytest.approx(prior.covs[0] + np.eye(6))
    assert predicted.weights[1] == pytest.approx(0.1, rel=1e-12)


def test_birth_components_match_birth_states():
    birth = BirthModel()
    mixture = birth_components(birth, np.random.default_rng(1))
    assert len(mixture) == 10
    assert mixture.mass == pytest.approx(0.1, rel=1e-12)
    assert np.array_equal(mixture.weights, np.full(10, 0.01))
    assert np.array_equal(mixture.covs, np.broadcast_to(birth.cov, (10, 6, 6)))
    # same rng seed, same sampled means
    assert np.array_equal(mixture.means, sample_birth_states(birth, np.random.default_rng(1)))
    assert len(birth_components(BirthModel(count_per_step=0), np.random.default_rng(1))) == 0


def test_update_block_structure():
    models = Models()
    prior = GaussianMixture(
        np.array([0.8, 0.7]),
        np.array([[80.0, 80.0, 80.0, 0.0, 0.0, 0.0], [150.0, 140.0, 90.0, 0.0, 0.0, 0.0]]),
        np.broadcast_to(np.diag([16.0, 16.0, 16.0, 1.0, 1.0, 1.0]), (2, 6, 6)).copy(),
    )
    meas = models.measurement
    scan = MeasurementScan(np.stack([meas.measure(prior.means[0]),
                                     meas.measure(prior.means[1])]))
    corrected = gm_update(prior, scan, models)
    # J missed components then J per measurement
    assert len(corrected) == 2 + 2 * 2
    p_d = models.detection.p_detect
    assert corrected.weights[:2] == pytest.approx((1 - p_d) * prior.weights, rel=1e-12)
    # each measurement block shares less than one unit of evidence
    for block in (corrected.weights[2:4], corrected.weights[4:6]):
        assert 0.0 < block.sum() < 1.0 + 1e-12
    # missed-detection components keep the prior mean and covariance
    assert corrected.means[:2] == pytest.approx(prior.means)
    assert corrected.covs[:2] == pytest.approx(prior.covs)
    # on-target measurements concentrate evidence on their own component
    assert corrected.weights[2] > 100.0 * corrected.weights[3]
    assert corrected.weights[5] > 100.0 * corrected.weights[4]


def test_update_uses_clutter_intensity_at_each_measurement():
    # two components and two measurements at very different ranges, so
    # kappa(z) = rate * density * range**2 * cos(elevation) differs by ~40x
    models = Models()
    meas = models.measurement
    prior = GaussianMixture(
        np.array([0.3, 0.02]),
        np.array([[30.0, 30.0, 20.0, 0.0, 0.0, 0.0], [150.0, 150.0, 300.0, 0.0, 0.0, 0.0]]),
        np.stack([np.diag([9.0, 9.0, 9.0, 1.0, 1.0, 1.0]),
                  np.diag([25.0, 25.0, 25.0, 1.0, 1.0, 1.0])]),
    )
    z = meas.measure(prior.means) + np.array([[2.5, 0.02, -0.015], [-4.0, 0.01, 0.012]])
    scan = MeasurementScan(z)
    corrected = gm_update(prior, scan, models)

    p_d = 0.98
    kappa = 10.0 / (200.0 * 200.0 * 400.0) * z[:, 0] ** 2 * np.cos(z[:, 2])
    assert kappa[1] > 20.0 * kappa[0]
    numer = np.empty((2, 2))
    for i in range(2):
        h = meas.jacobian(prior.means[i])
        s = h @ prior.covs[i] @ h.T + meas.noise_cov
        for m in range(2):
            d = z[m] - meas.measure(prior.means[i])
            g = np.exp(-0.5 * d @ np.linalg.solve(s, d)) / np.sqrt(np.linalg.det(2 * np.pi * s))
            numer[m, i] = p_d * prior.weights[i] * g
    expected = numer / (kappa[:, None] + numer.sum(axis=1, keepdims=True))
    assert corrected.weights[2:4] == pytest.approx(expected[0], rel=1e-9)
    assert corrected.weights[4:6] == pytest.approx(expected[1], rel=1e-9)
    # the Cartesian value rate * density would have given visibly different weights
    flat = numer / (6.25e-7 + numer.sum(axis=1, keepdims=True))
    assert abs(flat[1, 1] / expected[1, 1] - 1.0) > 0.05


def test_update_empty_scan_keeps_missed_block_only():
    models = Models()
    prior = GaussianMixture(np.array([0.8]),
                            np.array([[80.0, 80.0, 80.0, 0.0, 0.0, 0.0]]),
                            np.eye(6)[None] * 9.0)
    corrected = gm_update(prior, MeasurementScan(np.zeros((0, 3))), models)
    assert len(corrected) == 1
    assert corrected.mass == pytest.approx((1 - 0.98) * 0.8, rel=1e-12)
    # and an empty prior corrects to an empty mixture, whatever the scan
    scan = MeasurementScan(models.measurement.measure(prior.means))
    assert len(gm_update(GaussianMixture.empty(6), scan, models)) == 0


def test_update_wraps_azimuth_innovation():
    models = Models()
    meas = models.measurement
    # target just below the azimuth branch cut (az close to pi)
    x = np.array([-150.0, -0.5, 80.0, 0.0, 0.0, 0.0])
    prior = GaussianMixture(np.array([1.0]), x[None],
                            (np.diag([4.0, 4.0, 4.0, 0.5, 0.5, 0.5]))[None])
    from phdtrack.models import wrap_angle

    z = meas.measure(x).copy()
    eta_az = z[1]
    assert eta_az < -3.0  # predicted azimuth sits just below the cut
    # push the azimuth 6 mrad across the cut onto the positive side
    z[1] = float(wrap_angle(z[1] - 0.006))
    assert z[1] > 3.0
    corrected = gm_update(prior, MeasurementScan(z[None]), models)
    i = int(np.argmax(corrected.weights))
    # the raw innovation is ~ 2 pi; only the wrapped value (-0.006) keeps
    # the corrected mean near the prior instead of flinging it across the map
    assert np.linalg.norm(corrected.means[i, :3] - x[:3]) < 5.0
    assert corrected.weights[i] > 0.5 * corrected.mass


def likelihood_sums(prior, z, models):
    """p_D * sum_i w_i N(z; H m_i, H P_i H' + R) for each row of z, written
    one component at a time, independently of the corrector."""
    h = models.measurement.matrix
    r = models.measurement.noise_cov
    sums = np.zeros(len(z))
    for w, m, p in zip(prior.weights, prior.means, prior.covs):
        s = h @ p @ h.T + r
        d = z - m @ h.T
        quad = np.einsum("mi,mi->m", d, np.linalg.solve(s, d.T).T)
        sums += models.detection.p_detect * w * np.exp(-0.5 * quad) / np.sqrt(
            np.linalg.det(2.0 * np.pi * s))
    return sums


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 40), meas_count=st.integers(0, 8),
       p_detect=st.sampled_from([0.0, 0.5, 0.9, 0.98, 1.0]),
       log_kappa=st.floats(-9.0, 0.0))
def test_update_block_properties(seed, count, meas_count, p_detect, log_kappa):
    rng = np.random.default_rng(seed)
    kappa = 10.0 ** log_kappa
    models = Models(
        measurement=LinearMeasurementModel(np.hstack([np.eye(3), np.zeros((3, 3))]),
                                           np.diag(rng.uniform(0.5, 4.0, size=3))),
        clutter=ClutterModel(kappa_override=kappa),
        detection=DetectionSurvival(p_detect=p_detect),
    )
    factors = rng.normal(size=(count, 6, 6))
    covs = factors @ np.swapaxes(factors, -1, -2) + np.eye(6)
    prior = GaussianMixture(10.0 ** rng.uniform(-4.0, 0.0, size=count),
                            rng.normal(scale=20.0, size=(count, 6)),
                            0.5 * (covs + np.swapaxes(covs, -1, -2)),
                            rng.integers(0, 5, size=count))
    # measurements near some components, the rest anywhere
    near = prior.means[rng.integers(count, size=meas_count), :3]
    z = np.where(rng.random((meas_count, 1)) < 0.5, near + rng.normal(size=(meas_count, 3)),
                 rng.normal(scale=40.0, size=(meas_count, 3)))
    corrected = gm_update(prior, MeasurementScan(z), models)

    assert len(corrected) == (1 + meas_count) * count
    assert np.array_equal(corrected.weights[:count], (1.0 - p_detect) * prior.weights)
    blocks = corrected.weights[count:].reshape(meas_count, count)
    assert np.all((blocks >= 0.0) & (blocks <= 1.0))
    sums = likelihood_sums(prior, z, models)
    assert blocks.sum(axis=1) == pytest.approx(sums / (kappa + sums), rel=1e-9, abs=1e-300)
    first = prior.parts.max() + 1
    expected_parts = np.concatenate([prior.parts,
                                     np.repeat(np.arange(first, first + meas_count), count)])
    assert np.array_equal(corrected.parts, expected_parts)


def reference_gm_update(prior, scan, models):
    """gm_update as it was before its algebra was batched: three-operand
    einsum for S, K and P+, the eigenvalue floor one matrix at a time, and
    one pass per measurement.  Kept as the oracle for the batched corrector."""
    p_d = models.detection.p_detect
    meas = models.measurement
    kappa = models.clutter.intensity(scan.values, meas)
    w, m, p = prior.weights, prior.means, prior.covs
    j = len(prior)
    out_w, out_m, out_p = [(1.0 - p_d) * w], [m], [p]
    first = int(prior.parts.max(initial=-1)) + 1
    out_parts = np.concatenate([prior.parts, np.repeat(np.arange(first, first + len(scan)), j)])
    if len(scan) and j:
        ok = meas.linearizable(m)
        r = np.asarray(meas.noise_cov, dtype=float)
        h = np.zeros((j, r.shape[0], prior.dim))
        eta = np.zeros((j, r.shape[0]))
        if np.any(ok):
            h[ok] = meas.jacobian(m[ok])
            eta[ok] = meas.measure(m[ok])
        s = np.einsum("aij,ajk,alk->ail", h, p, h) + r
        s = 0.5 * (s + np.swapaxes(s, -1, -2))
        log_norm = r.shape[0] * np.log(2.0 * np.pi) + np.linalg.slogdet(s)[1]
        s_inv = np.linalg.inv(s)
        k_gain = np.einsum("aij,akj,akl->ail", p, h, s_inv)
        p_post = p - np.einsum("aij,ajk,akl->ail", k_gain, h, p)
        p_post = np.stack([floor_covariance(0.5 * (c + c.T)) for c in p_post])
        for z, kappa_z in zip(scan.values, kappa):
            innov = z[None, :] - eta
            innov[:, meas.angular] = wrap_angle(innov[:, meas.angular])
            quad = np.einsum("ai,aij,aj->a", innov, s_inv, innov)
            like = np.exp(-0.5 * (quad + log_norm))
            like[~ok] = 0.0
            numer = p_d * w * like
            denom = kappa_z + numer.sum()
            out_w.append(numer / denom if denom > 0 else np.zeros_like(numer))
            out_m.append(m + np.einsum("aij,aj->ai", k_gain, innov))
            out_p.append(p_post)
    return GaussianMixture(np.concatenate(out_w), np.concatenate(out_m), np.concatenate(out_p),
                           out_parts)


def radar_prior(rng, count):
    """Components across the clutter box, about a quarter of them just below
    the azimuth branch cut (outside the box, where kappa(z) is 0), and the
    first at the sensor origin, where the radar cannot be linearized."""
    pos = rng.uniform([0.0, 0.0, 0.0], [200.0, 200.0, 400.0], size=(count, 3))
    cut = rng.random(count) < 0.25
    pos[cut] = np.column_stack([-rng.uniform(50.0, 200.0, cut.sum()),
                                rng.uniform(-0.5, 0.5, cut.sum()),
                                rng.uniform(0.0, 400.0, cut.sum())])
    pos[0] = 0.0
    factors = rng.normal(size=(count, 6, 6))
    scales = 10.0 ** rng.uniform(-1.0, 1.0, size=(count, 1, 1))
    covs = scales * factors @ np.swapaxes(factors, -1, -2) + np.diag([1.0] * 3 + [0.1] * 3)
    return GaussianMixture(10.0 ** rng.uniform(-4.0, 0.0, size=count),
                           np.hstack([pos, rng.normal(size=(count, 3))]),
                           0.5 * (covs + np.swapaxes(covs, -1, -2)),
                           rng.integers(0, 5, size=count))


def radar_scan(rng, prior, meas, meas_count):
    """Measurements of some components, azimuth wrapped, some anywhere in the
    box, and some a few sigmas from the sensor, where the component at the
    origin would have a likelihood if it were not masked."""
    linearizable = np.flatnonzero(meas.linearizable(prior.means))
    source = prior.means[rng.choice(linearizable, size=meas_count), :3]
    anywhere = rng.uniform([0.0, 0.0, 0.0], [200.0, 200.0, 400.0], size=(meas_count, 3))
    kind = rng.random((meas_count, 1))
    z = meas.measure(np.where(kind < 0.6, source, anywhere))
    z[kind[:, 0] >= 0.9] = 0.0
    z = z + 3.0 * meas.sigmas * rng.normal(size=(meas_count, 3))
    z[:, 0] = np.abs(z[:, 0])
    z[:, 1] = wrap_angle(z[:, 1])
    return MeasurementScan(z)


def assert_close_to_scale(got, want, rel=1e-12):
    """Every entry within rel of the largest entry it is compared with."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rel * np.abs(want).max(initial=0.0))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(2, 30), meas_count=st.integers(0, 8),
       p_detect=st.floats(0.0, 1.0), rate=st.sampled_from([0.0, 10.0, 1000.0]))
def test_update_matches_per_measurement_corrector(seed, count, meas_count, p_detect, rate):
    rng = np.random.default_rng(seed)
    models = Models(clutter=ClutterModel(rate=rate), detection=DetectionSurvival(p_detect=p_detect))
    prior = radar_prior(rng, count)
    scan = radar_scan(rng, prior, models.measurement, meas_count)
    got = gm_update(prior, scan, models)
    want = reference_gm_update(prior, scan, models)

    assert np.array_equal(got.parts, want.parts)
    for g, w in [(got.weights, want.weights), (got.means, want.means), (got.covs, want.covs)]:
        assert g.shape == w.shape
        assert np.array_equal(g[:count], w[:count])
    for m in range(meas_count):
        block = slice((1 + m) * count, (2 + m) * count)
        assert_close_to_scale(got.weights[block], want.weights[block])
        for g, w in zip(got.means[block], want.means[block]):
            assert_close_to_scale(g, w)
        for g, w in zip(got.covs[block], want.covs[block]):
            assert_close_to_scale(g, w)


def test_prune_drops_light_components_but_keeps_mass():
    config = GmPhdConfig()
    mix = GaussianMixture(
        np.array([1e-8, 0.5]),
        np.array([[0.0] * 6, [100.0, 100.0, 100.0, 0.0, 0.0, 0.0]]),
        np.broadcast_to(np.eye(6), (2, 6, 6)).copy(),
    )
    managed = prune_merge_cap(mix, config)
    assert len(managed) == 1
    assert managed.means[0] == pytest.approx(mix.means[1])
    assert managed.mass == pytest.approx(mix.mass, rel=1e-12)


def test_prune_keeps_heaviest_when_all_below_threshold():
    config = GmPhdConfig()
    mix = GaussianMixture(
        np.array([1e-9, 3e-8]),
        np.array([[0.0] * 6, [50.0] * 6]),
        np.broadcast_to(np.eye(6), (2, 6, 6)).copy(),
    )
    managed = prune_merge_cap(mix, config)
    assert len(managed) == 1
    assert managed.means[0] == pytest.approx(mix.means[1])
    assert managed.mass == pytest.approx(mix.mass, rel=1e-12)


def test_merge_moment_matches_close_components():
    config = GmPhdConfig()
    mean = np.array([50.0, 50.0, 50.0, 0.0, 0.0, 0.0])
    offset = np.array([0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
    mix = GaussianMixture(
        np.array([0.4, 0.3]),
        np.stack([mean, mean + offset]),
        np.broadcast_to(np.eye(6), (2, 6, 6)).copy(),
    )
    managed = prune_merge_cap(mix, config)
    assert len(managed) == 1
    assert managed.weights[0] == pytest.approx(0.7, rel=1e-12)
    expected_mean = (0.4 * mean + 0.3 * (mean + offset)) / 0.7
    assert managed.means[0] == pytest.approx(expected_mean, rel=1e-12)
    # moment-matched covariance picks up the between-mean spread
    dm0 = mean - expected_mean
    dm1 = mean + offset - expected_mean
    expected_cov = (0.4 * (np.eye(6) + np.outer(dm0, dm0))
                    + 0.3 * (np.eye(6) + np.outer(dm1, dm1))) / 0.7
    assert managed.covs[0] == pytest.approx(expected_cov, rel=1e-12)


def test_merge_respects_threshold():
    config = GmPhdConfig()
    mix = GaussianMixture(
        np.array([0.4, 0.3]),
        np.array([[0.0] * 6, [100.0, 0.0, 0.0, 0.0, 0.0, 0.0]]),
        np.broadcast_to(np.eye(6), (2, 6, 6)).copy(),
    )
    managed = prune_merge_cap(mix, config)
    assert len(managed) == 2
    assert managed.mass == pytest.approx(0.7, rel=1e-12)


def chain_mixture(weights):
    """A, B, C on the x axis 1.5 apart with unit covariances: A-B and B-C lie
    within the merge threshold (squared distance 2.25 <= 4), A-C outside (9)."""
    means = np.zeros((3, 6))
    means[:, 0] = [0.0, 1.5, 3.0]
    return GaussianMixture(np.array(weights), means, np.broadcast_to(np.eye(6), (3, 6, 6)).copy())


def moment_match(mix, members):
    w = mix.weights[members]
    mean = w @ mix.means[members] / w.sum()
    dm = mix.means[members] - mean
    cov = sum(wi * (p + np.outer(d, d)) for wi, p, d in zip(w, mix.covs[members], dm)) / w.sum()
    return w.sum(), mean, cov


@pytest.mark.parametrize("weights, clusters", [
    # the heaviest component seeds the first cluster and takes only its
    # own neighbours, so the middle one goes with whichever end is heavier
    ([0.5, 0.3, 0.2], [[0, 1], [2]]),
    ([0.2, 0.3, 0.5], [[2, 1], [0]]),
    # a heaviest middle component reaches both ends
    ([0.3, 0.5, 0.2], [[0, 1, 2]]),
])
def test_merge_is_greedy_by_weight_along_a_chain(weights, clusters):
    mix = chain_mixture(weights)
    managed = prune_merge_cap(mix, GmPhdConfig())
    assert len(managed) == len(clusters)
    for i, members in enumerate(clusters):
        weight, mean, cov = moment_match(mix, sorted(members))
        assert managed.weights[i] == pytest.approx(weight, rel=1e-12)
        assert managed.means[i] == pytest.approx(mean, rel=1e-12, abs=1e-15)
        assert managed.covs[i] == pytest.approx(cov, rel=1e-12, abs=1e-15)
    assert managed.mass == pytest.approx(1.0, rel=1e-12)


def reference_prune_merge_cap(mixture, config):
    """prune_merge_cap as it was before its merge distances were batched:
    one solve in the seed's covariance per greedy iteration.  Kept as the
    oracle for the partition, the arithmetic and the output order."""
    if len(mixture) == 0:
        return mixture
    pre_mass = mixture.mass
    keep = mixture.weights >= config.prune_threshold
    if not np.any(keep):
        keep = np.zeros(len(mixture), dtype=bool)
        keep[int(np.argmax(mixture.weights))] = True
    w = mixture.weights[keep]
    m = mixture.means[keep]
    p = mixture.covs[keep]
    merged_w, merged_m, merged_p = [], [], []
    unmerged = np.ones(len(w), dtype=bool)
    alive = np.arange(len(w))
    while alive.size:
        seed = alive[int(np.argmax(w[alive]))]
        diff = m[alive] - m[seed]
        solved = np.linalg.solve(p[seed], diff.T)
        d2 = np.einsum("ij,ji->i", diff, solved)
        cluster = alive[d2 <= config.merge_threshold]
        cw = w[cluster]
        total = cw.sum()
        mean = cw @ m[cluster] / total
        dm = m[cluster] - mean
        cov = np.einsum("a,aij->ij", cw, p[cluster] + dm[:, :, None] * dm[:, None, :]) / total
        merged_w.append(total)
        merged_m.append(mean)
        merged_p.append(0.5 * (cov + cov.T))
        unmerged[cluster] = False
        alive = np.flatnonzero(unmerged)
    w = np.array(merged_w)
    m = np.array(merged_m)
    p = np.array(merged_p)
    if w.size > config.max_components:
        top = np.sort(np.argsort(-w, kind="stable")[:config.max_components])
        w, m, p = w[top], m[top], p[top]
    current = w.sum()
    if current > 0:
        w = w * (pre_mass / current)
    return GaussianMixture(w, m, p)


def assert_bit_identical(managed, expected):
    for got, want in [(managed.weights, expected.weights), (managed.means, expected.means),
                      (managed.covs, expected.covs)]:
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def random_mixture(rng, count, dim):
    """Clustered means, SPD covariances over three decades of scale, and
    weights over seven decades, so some fall below the prune threshold."""
    centres = rng.normal(scale=10.0, size=(max(1, count // 4), dim))
    means = centres[rng.integers(len(centres), size=count)] + rng.normal(size=(count, dim))
    factors = rng.normal(size=(count, dim, dim))
    scales = 10.0 ** rng.uniform(-1.0, 2.0, size=count)
    covs = scales[:, None, None] * (factors @ np.swapaxes(factors, -1, -2) / dim + 0.1 * np.eye(dim))
    covs = 0.5 * (covs + np.swapaxes(covs, -1, -2))
    weights = 10.0 ** rng.uniform(-7.0, 0.0, size=count)
    return GaussianMixture(weights, means, covs)


def pairwise_d2(mixture, config):
    """Squared distance of every kept component from every other kept one,
    in the first one's covariance."""
    kept = mixture.weights >= config.prune_threshold
    m, p = mixture.means[kept], mixture.covs[kept]
    diff = m[None] - m[:, None]
    d2 = np.einsum("sjd,sdj->sj", diff, np.linalg.solve(p, np.swapaxes(diff, -1, -2)))
    np.fill_diagonal(d2, np.inf)
    return d2


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 200), dim=st.integers(1, 6),
       max_components=st.integers(1, 100), merge_threshold=st.sampled_from([0.0, 1.0, 4.0, 16.0]))
def test_merge_matches_one_solve_per_seed(seed, count, dim, max_components, merge_threshold):
    mix = random_mixture(np.random.default_rng(seed), count, dim)
    config = GmPhdConfig(merge_threshold=merge_threshold, max_components=max_components)
    # a distance within roundoff of the threshold may fall either side of
    # it under a different (equally exact) evaluation order
    d2 = pairwise_d2(mix, config)
    assume(not np.any(np.abs(d2 - merge_threshold) <= 1e-9 * merge_threshold))
    assert_bit_identical(prune_merge_cap(mix, config), reference_prune_merge_cap(mix, config))


def test_merge_across_distance_blocks():
    block = phd_gm.MERGE_BLOCK
    count = 3 * block + 10
    rank_weight = 1.0 - 0.004 * np.arange(count)
    # far apart on the x axis, unit covariances: every component its own
    # cluster unless placed next to another
    means = np.zeros((count, 6))
    means[:, 0] = 100.0 * np.arange(count)
    # a cluster seeded at rank 0 with members ranked in the second and
    # third blocks, so it straddles the blocks and its members' own blocks
    # skip them
    means[[block + 5, 2 * block + 7], 0] = [1.0, -1.0]
    # the last seed of the first block takes the first of the second
    means[block, 0] = means[block - 1, 0] + 1.5
    # a cluster inside the second block, seeded after skipped components
    means[block + 9, 0] = means[block + 8, 0] + 0.5
    order = np.random.default_rng(7).permutation(count)
    mix = GaussianMixture(rank_weight[order], means[order],
                          np.broadcast_to(np.eye(6), (count, 6, 6)).copy())
    uncapped = GmPhdConfig(max_components=count)
    assert len(reference_prune_merge_cap(mix, uncapped)) == count - 4
    assert_bit_identical(prune_merge_cap(mix, uncapped), reference_prune_merge_cap(mix, uncapped))
    capped = GmPhdConfig(max_components=block + 20)
    managed = prune_merge_cap(mix, capped)
    assert len(managed) == block + 20
    assert_bit_identical(managed, reference_prune_merge_cap(mix, capped))


@pytest.mark.parametrize("singular, far", [(0, 50.0), (1, 50.0), (1, 0.5)],
                         ids=["seed", "other-seed", "absorbed"])
def test_merge_raises_on_a_singular_covariance(singular, far):
    covs = np.broadcast_to(np.eye(6), (2, 6, 6)).copy()
    covs[singular] = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
    mix = GaussianMixture(np.array([0.9, 0.4]), np.array([[0.0] * 6, [far] * 6]), covs)
    with pytest.raises(np.linalg.LinAlgError):
        prune_merge_cap(mix, GmPhdConfig())


def test_cap_keeps_heaviest_and_rescales():
    config = GmPhdConfig(max_components=3)
    count = 10
    weights = 0.01 * np.arange(1, count + 1)
    means = np.zeros((count, 6))
    means[:, 0] = 100.0 * np.arange(count)  # far apart: no merging
    mix = GaussianMixture(weights, means, np.broadcast_to(np.eye(6), (count, 6, 6)).copy())
    managed = prune_merge_cap(mix, config)
    assert len(managed) == 3
    kept = sorted(managed.means[:, 0])
    assert kept == [700.0, 800.0, 900.0]
    assert managed.mass == pytest.approx(mix.mass, rel=1e-12)


def test_extract_top_n():
    config = GmPhdConfig()
    mix = GaussianMixture(
        np.array([0.9, 0.8, 0.4]),
        np.array([[1.0] * 6, [2.0] * 6, [3.0] * 6]),
        np.broadcast_to(np.eye(6), (3, 6, 6)).copy(),
    )
    n_hat, states = gm_extract(mix, config)
    # mass 2.1 rounds to 2: the two heaviest means
    assert n_hat == 2
    assert states == pytest.approx(mix.means[:2])


def test_extract_threshold_mode():
    config = GmPhdConfig(extraction="threshold", extraction_threshold=0.5)
    mix = GaussianMixture(
        np.array([0.9, 0.3, 0.7]),
        np.array([[1.0] * 6, [2.0] * 6, [3.0] * 6]),
        np.broadcast_to(np.eye(6), (3, 6, 6)).copy(),
    )
    n_hat, states = gm_extract(mix, config)
    assert n_hat == 2
    assert states == pytest.approx(mix.means[[0, 2]])


def test_extract_zero_mass():
    config = GmPhdConfig()
    n_hat, states = gm_extract(GaussianMixture.empty(6), config)
    assert n_hat == 0
    assert states.shape == (0, 6)
    light = GaussianMixture(np.array([0.2]), np.zeros((1, 6)),
                            np.broadcast_to(np.eye(6), (1, 6, 6)).copy())
    n_hat, states = gm_extract(light, config)
    assert n_hat == 0
    assert states.shape == (0, 6)


def test_config_validation():
    with pytest.raises(ValueError):
        GmPhdConfig(prune_threshold=-1.0)
    with pytest.raises(ValueError):
        GmPhdConfig(max_components=0)
    with pytest.raises(ValueError):
        GmPhdConfig(extraction="middle-out")


def test_radar_update_smoke():
    """End-to-end correction through the nonlinear measurement map."""
    models = Models()
    meas = models.measurement
    x = np.array([60.0, 70.0, 80.0, 0.5, -0.5, 2.0])
    prior = GaussianMixture(np.array([1.0]), x[None],
                            np.diag([25.0, 25.0, 25.0, 1.0, 1.0, 1.0])[None])
    z = meas.measure(x + np.array([2.0, -1.0, 1.0, 0, 0, 0]))
    corrected = gm_update(prior, MeasurementScan(z[None]), models)
    i = int(np.argmax(corrected.weights))
    # the corrected mean moves toward the measured position
    assert np.linalg.norm(corrected.means[i, :3] - x[:3]) < 4.0
    assert np.linalg.norm(corrected.means[i, :3] - (x[:3] + [2, -1, 1])) < 2.0
    # correction shrinks the position uncertainty
    assert np.trace(corrected.covs[i][:3, :3]) < np.trace(prior.covs[0][:3, :3])


# ---------------------------------------------------------------------------
# each stage checks the covariances it computes


def test_predict_checks_computed_covariances():
    from types import SimpleNamespace

    from phdtrack.models import transition_matrix

    # a motion model whose process noise was never validated
    motion = SimpleNamespace(dt=1.0, transition=transition_matrix(1.0),
                             process_noise=-10.0 * np.eye(6))
    models = Models(motion=motion, birth=BirthModel(count_per_step=0))
    posterior = GaussianMixture(np.array([1.0]), np.zeros((1, 6)), np.eye(6)[None])
    with pytest.raises(ValueError, match="PSD"):
        gm_predict(posterior, models, np.random.default_rng(0))


def test_update_checks_posterior_covariances(monkeypatch):
    import phdtrack.phd_gm as phd_gm

    monkeypatch.setattr(phd_gm, "floor_covariances", lambda covs: -np.eye(6) + 0.0 * covs)
    models = Models()
    x = np.array([60.0, 70.0, 80.0, 0.5, -0.5, 2.0])
    prior = GaussianMixture(np.array([1.0]), x[None],
                            np.diag([25.0, 25.0, 25.0, 1.0, 1.0, 1.0])[None])
    scan = MeasurementScan(models.measurement.measure(x)[None])
    with pytest.raises(ValueError, match="PSD"):
        gm_update(prior, scan, models)


def test_update_rejects_a_posterior_the_floor_cannot_mend():
    # a prior covariance that never passed a check: -0.01 I keeps S positive
    # definite under the radar's noise, but P+ stays negative definite and
    # the floor, eps * I with eps about 1e-9, cannot lift it
    models = Models()
    x = np.array([60.0, 70.0, 80.0, 0.5, -0.5, 2.0])
    prior = GaussianMixture._assemble(np.array([1.0]), x[None], -0.01 * np.eye(6)[None])
    scan = MeasurementScan(models.measurement.measure(x)[None])
    with pytest.raises(ValueError, match="PSD"):
        gm_update(prior, scan, models)


def test_prune_merge_cap_checks_merged_covariances():
    # covariances that never passed a check, as if a stage before had
    # skipped its own
    bad = GaussianMixture._assemble(np.array([0.5, 0.4]), np.array([[0.0] * 6, [100.0] * 6]),
                                    np.broadcast_to(-np.eye(6), (2, 6, 6)).copy())
    with pytest.raises(ValueError, match="PSD"):
        prune_merge_cap(bad, GmPhdConfig())
