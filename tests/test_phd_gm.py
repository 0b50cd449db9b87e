"""Gaussian-mixture intensity filter: prediction, correction, management."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from phdtrack.gaussmix import (
    GaussianMixture,
    check_covariances,
    exp_skip_underflow,
    floor_covariances,
)
from phdtrack.models import (
    BirthModel,
    ClutterModel,
    DetectionSurvival,
    LinearMeasurementModel,
    MeasurementScan,
    Models,
    MotionModel,
    RadarMeasurementModel,
    dwna_process_noise,
    sample_birth_states,
    wrap_angular,
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

# the scenario's default budget, which caps the managed mixture
BUDGET = 250


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
        posterior = prune_merge_cap(corrected, GmPhdConfig(), BUDGET)


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
    z = meas.measure(x).copy()
    eta_az = z[1]
    assert eta_az < -3.0  # predicted azimuth sits just below the cut
    # push the azimuth 6 mrad across the cut onto the positive side
    z[1] -= 0.006
    wrap_angular(z, meas.angular)
    assert z[1] > 3.0
    corrected = gm_update(prior, MeasurementScan(z[None]), models)
    i = int(np.argmax(corrected.weights))
    # the raw innovation is ~ 2 pi; only the wrapped value (-0.006) keeps
    # the corrected mean near the prior instead of flinging it across the map
    assert np.linalg.norm(corrected.means[i, :3] - x[:3]) < 5.0
    assert corrected.weights[i] > 0.5 * corrected.mass


def likelihood_sums(prior, z, models):
    """S(z) = p_D * sum_j w_j N(z; h(m_j), H_j P_j H_j' + R) for each row of z,
    over the linearizable components, one at a time, independently of the
    corrector."""
    meas = models.measurement
    r = meas.noise_cov
    sums = np.zeros(len(z))
    for w, m, p in zip(prior.weights, prior.means, prior.covs):
        if not meas.linearizable(m):
            continue
        h = meas.jacobian(m)
        s = h @ p @ h.T + r
        d = z - meas.measure(m)
        wrap_angular(d, meas.angular)
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
        p_post = np.stack([floor_covariances((0.5 * (c + c.T))[None])[0] for c in p_post])
        for z, kappa_z in zip(scan.values, kappa):
            innov = z[None, :] - eta
            wrap_angular(innov, meas.angular)
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
    wrap_angular(z, meas.angular)
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


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(2, 30), meas_count=st.integers(0, 8),
       p_detect=st.sampled_from([0.0, 0.5, 0.9, 0.98, 1.0]), log_kappa=st.floats(-12.0, 0.0))
def test_update_mass_ledger(seed, count, meas_count, p_detect, log_kappa):
    """Corrected mass = (1 - p_D) * prior mass + sum_z S(z) / (kappa(z) + S(z))."""
    rng = np.random.default_rng(seed)
    kappa = 10.0 ** log_kappa
    models = Models(clutter=ClutterModel(kappa_override=kappa),
                    detection=DetectionSurvival(p_detect=p_detect))
    prior = radar_prior(rng, count)
    scan = radar_scan(rng, prior, models.measurement, meas_count)
    sums = likelihood_sums(prior, scan.values, models)
    want = (1.0 - p_detect) * prior.mass + np.sum(sums / (kappa + sums))
    # a mass that underflows to a subnormal keeps no relative precision
    assert gm_update(prior, scan, models).mass == pytest.approx(want, rel=1e-12, abs=1e-300)


def inverse_gm_update(prior, scan, models):
    """gm_update as it was before S was factored once: a Cholesky of S for
    its log determinant, then inv(S) for the gain K and the quadratic forms.
    Kept verbatim as the oracle for the whitened corrector."""
    p_d = models.detection.p_detect
    meas = models.measurement
    kappa = models.clutter.intensity(scan.values, meas)
    w, m, p = prior.weights, prior.means, prior.covs
    j = len(prior)
    out_w = [(1.0 - p_d) * w]
    out_m = [m]
    out_p = [p]
    first = int(prior.parts.max(initial=-1)) + 1
    out_parts = np.concatenate([prior.parts, np.repeat(np.arange(first, first + len(scan)), j)])
    if len(scan) and j:
        # components where the measurement map cannot be linearized (the
        # radar is singular at the origin and on the z-axis) keep H = 0 and
        # zero detection likelihood: they persist only as missed detections
        ok = meas.linearizable(m)
        r = np.asarray(meas.noise_cov, dtype=float)
        h = np.zeros((j, r.shape[0], prior.dim))
        eta = np.zeros((j, r.shape[0]))
        if np.any(ok):
            h[ok] = meas.jacobian(m[ok])
            eta[ok] = meas.measure(m[ok])
        ht = np.swapaxes(h, -1, -2)
        hp = h @ p
        s = hp @ ht + r
        s = 0.5 * (s + np.swapaxes(s, -1, -2))
        log_det = 2.0 * np.log(np.diagonal(np.linalg.cholesky(s), axis1=-2, axis2=-1)).sum(-1)
        s_inv = np.linalg.inv(s)
        k_gain = p @ ht @ s_inv
        p_post = p - k_gain @ hp
        p_sym = 0.5 * (p_post + np.swapaxes(p_post, -1, -2))
        p_post = floor_covariances(p_sym)
        if p_post is not p_sym:
            check_covariances(p_post)
        # every measurement against every component at once: innovations
        # held component-major, (J, M, z_dim), so that each component's
        # S^-1 and K apply to all its M innovations in one matmul
        innov = wrap_angular(scan.values[None, :, :] - eta[:, None, :], meas.angular)
        quad = np.sum((innov @ s_inv) * innov, axis=-1).T
        log_norm = r.shape[0] * np.log(2.0 * np.pi) + log_det
        like = exp_skip_underflow(-0.5 * (quad + log_norm))
        like[:, ~ok] = 0.0
        numer = p_d * w * like
        denom = kappa + numer.sum(axis=1)
        # a measurement with no clutter and no detection likelihood gets
        # an all-zero block
        out_w.append(np.divide(numer, denom[:, None], out=np.zeros_like(numer),
                               where=denom[:, None] > 0).ravel())
        out_m.append((m + np.swapaxes(innov @ np.swapaxes(k_gain, -1, -2), 0, 1))
                     .reshape(-1, prior.dim))
        # M references to one block: the final concatenate is the only copy
        out_p.extend([p_post] * len(scan))
    return GaussianMixture._assemble(np.concatenate(out_w), np.concatenate(out_m),
                                     np.concatenate(out_p), out_parts)


def assert_matches_inverse_corrector(prior, scan, models):
    """Parts bit for bit; weights within 1e-12 relative, times |log w| below
    1/e; each mean within 1e-12 of its largest entry; each covariance within
    1e-12 of the largest entry of the prior covariance it corrects.

    A weight is about exp(-q/2), so the roundoff of the quadratic form q
    moves it by q/2 times that roundoff, relatively: on engm's inputs a
    weight of 5e-298 differs by 1.9e-12.  P+ = P - G G' cancels down from
    P's scale, so either form's roundoff is relative to P: P+ differs by
    up to 1.5e-12 of its own largest entry but 1e-15 of P's."""
    got = gm_update(prior, scan, models)
    want = inverse_gm_update(prior, scan, models)
    assert np.array_equal(got.parts, want.parts)
    w = want.weights
    tol = 1e-12 * w * np.maximum(1.0, -np.log(np.maximum(w, 1e-300)))
    assert np.all(np.abs(got.weights - w) <= tol + 1e-300)
    for g, w in zip(got.means, want.means):
        assert_close_to_scale(g, w)
    scale = np.abs(np.tile(prior.covs, (len(scan) + 1, 1, 1))).max(axis=(1, 2))
    assert np.all(np.abs(got.covs - want.covs).max(axis=(1, 2)) <= 1e-12 * scale)
    return got


@pytest.mark.parametrize("kind", ["gm", "engm"])
@pytest.mark.parametrize("rate", [10.0, 0.0], ids=["reference", "clean"])
def test_update_matches_the_inverse_corrector_on_scenario_inputs(monkeypatch, kind, rate):
    # every corrector input of 20 seeded steps of each benchmark workload
    import phdtrack.scenario as scenario

    name = "gm_update" if kind == "gm" else "engm_update"
    seen = []
    real = getattr(scenario, name)

    def capture(prior, scan, models):
        seen.append((prior, scan, models))
        return real(prior, scan, models)

    monkeypatch.setattr(scenario, name, capture)
    scenario.run_filter(scenario.ScenarioConfig(
        models=Models(clutter=ClutterModel(rate=rate)), filter_kind=kind, seed=0, t_end=20.0,
        runs=1))
    assert len(seen) == 20
    for args in seen:
        assert_matches_inverse_corrector(*args)


def test_update_matches_the_inverse_corrector_under_a_correlated_noise():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((3, 3))
    r = a @ a.T + 0.5 * np.eye(3)
    h = np.hstack([rng.standard_normal((3, 3)), np.zeros((3, 3))])
    models = Models(measurement=LinearMeasurementModel(h, r),
                    clutter=ClutterModel(kappa_override=1e-4))
    factors = rng.standard_normal((12, 6, 6))
    covs = factors @ np.swapaxes(factors, -1, -2) + np.eye(6)
    prior = GaussianMixture(rng.uniform(0.01, 1.0, 12), rng.normal(scale=20.0, size=(12, 6)),
                            0.5 * (covs + np.swapaxes(covs, -1, -2)))
    z = prior.means[:5] @ h.T + rng.standard_normal((5, 3)) @ np.linalg.cholesky(r).T
    corrected = assert_matches_inverse_corrector(prior, MeasurementScan(z), models)
    assert corrected.weights[12:].sum() > 0.5


def test_update_keeps_a_component_on_the_z_axis_as_a_missed_detection_only():
    # the radar cannot be linearized on its z-axis: H = 0, so S = R, and the
    # component's corrected copies keep its mean and covariance at weight 0
    models = Models()
    x = np.array([[0.0, 0.0, 120.0, 0.0, 0.0, 1.0], [60.0, 70.0, 80.0, 0.5, -0.5, 2.0]])
    prior = GaussianMixture(np.array([0.7, 0.9]), x,
                            np.diag([25.0, 25.0, 25.0, 1.0, 1.0, 1.0])[None].repeat(2, axis=0))
    scan = MeasurementScan(models.measurement.measure(x[1:]) + [[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]])
    corrected = assert_matches_inverse_corrector(prior, scan, models)
    axis = np.arange(2, len(corrected), 2)
    assert np.all(corrected.weights[axis] == 0.0)
    assert np.array_equal(corrected.means[axis], x[[0, 0]])
    assert np.array_equal(corrected.covs[axis], prior.covs[[0, 0]])


def test_update_rejects_an_innovation_covariance_that_is_not_positive_definite():
    # a prior covariance that never passed a check makes S = H P H' + R
    # indefinite, and S's one Cholesky factorization fails
    models = Models()
    x = np.array([60.0, 70.0, 80.0, 0.5, -0.5, 2.0])
    prior = GaussianMixture._assemble(np.array([1.0]), x[None],
                                      np.diag([-100.0, -100.0, -100.0, 1.0, 1.0, 1.0])[None])
    scan = MeasurementScan(models.measurement.measure(x)[None])
    with pytest.raises(np.linalg.LinAlgError):
        gm_update(prior, scan, models)


def test_prune_drops_light_components_but_keeps_mass():
    config = GmPhdConfig()
    mix = GaussianMixture(
        np.array([1e-8, 0.5]),
        np.array([[0.0] * 6, [100.0, 100.0, 100.0, 0.0, 0.0, 0.0]]),
        np.broadcast_to(np.eye(6), (2, 6, 6)).copy(),
    )
    managed = prune_merge_cap(mix, config, BUDGET)
    assert len(managed) == 1
    assert managed.means[0] == pytest.approx(mix.means[1])
    assert managed.mass == pytest.approx(mix.mass, rel=1e-12)
    # a threshold of 0 still drops a zero weight, whose moment match is 0/0
    mix = GaussianMixture(np.array([1.0, 0.0]), mix.means, mix.covs)
    managed = prune_merge_cap(mix, GmPhdConfig(prune_threshold=0.0), BUDGET)
    assert len(managed) == 1
    assert managed.means[0] == pytest.approx(mix.means[0])
    assert managed.mass == 1.0


def test_prune_of_zero_mass_is_the_empty_mixture():
    mix = GaussianMixture(np.zeros(2), np.zeros((2, 6)),
                          np.broadcast_to(np.eye(6), (2, 6, 6)).copy())
    for config in (GmPhdConfig(), GmPhdConfig(prune_threshold=0.0)):
        managed = prune_merge_cap(mix, config, BUDGET)
        assert len(managed) == 0
        assert managed.dim == 6


def test_prune_keeps_heaviest_when_all_below_threshold():
    config = GmPhdConfig()
    mix = GaussianMixture(
        np.array([1e-9, 3e-8]),
        np.array([[0.0] * 6, [50.0] * 6]),
        np.broadcast_to(np.eye(6), (2, 6, 6)).copy(),
    )
    managed = prune_merge_cap(mix, config, BUDGET)
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
    managed = prune_merge_cap(mix, config, BUDGET)
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
    managed = prune_merge_cap(mix, config, BUDGET)
    assert len(managed) == 2
    assert managed.mass == pytest.approx(0.7, rel=1e-12)


def test_merge_passes_a_lone_component_through_bit_for_bit():
    # two components 500 m apart: each is a cluster of one, which is its
    # seed as it is; a moment match w * m / w would round the bits away
    rng = np.random.default_rng(2)
    factor = rng.normal(size=(6, 6))
    cov = factor @ factor.T + np.eye(6)
    cov = 0.5 * (cov + cov.T)
    means = rng.normal(scale=100.0, size=(2, 6))
    means[1, 0] = means[0, 0] + 500.0
    mix = GaussianMixture(rng.uniform(0.1, 1.0, 2), means, np.stack([cov, 2.0 * cov]))
    managed = prune_merge_cap(mix, GmPhdConfig(), BUDGET)
    order = np.argsort(-mix.weights)
    assert np.array_equal(managed.means, mix.means[order])
    assert np.array_equal(managed.covs, mix.covs[order])


def test_merge_checks_only_the_moment_matched_covariances(monkeypatch):
    # one two-member cluster and four lone components: every lone covariance
    # was proved where it was computed, so only the merged one goes through
    # the floor
    seen = []

    def spy(covs):
        seen.append(covs.copy())
        return floor_covariances(covs)

    monkeypatch.setattr(phd_gm, "floor_covariances", spy)
    means = np.zeros((6, 6))
    means[:, 0] = [0.0, 0.5, 100.0, 200.0, 300.0, 400.0]
    mix = GaussianMixture(np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4]), means,
                          np.broadcast_to(np.eye(6), (6, 6, 6)).copy())
    managed = prune_merge_cap(mix, GmPhdConfig(), BUDGET)
    assert len(managed) == 5
    assert len(seen) == 1 and seen[0].shape == (1, 6, 6)
    assert np.array_equal(seen[0][0], managed.covs[0])


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
    managed = prune_merge_cap(mix, GmPhdConfig(), BUDGET)
    assert len(managed) == len(clusters)
    for i, members in enumerate(clusters):
        weight, mean, cov = moment_match(mix, sorted(members))
        assert managed.weights[i] == pytest.approx(weight, rel=1e-12)
        assert managed.means[i] == pytest.approx(mean, rel=1e-12, abs=1e-15)
        assert managed.covs[i] == pytest.approx(cov, rel=1e-12, abs=1e-15)
    assert managed.mass == pytest.approx(1.0, rel=1e-12)


def reference_prune_merge_cap(mixture, config, budget):
    """prune_merge_cap as it was before its merge distances were batched:
    one solve in the seed's covariance per greedy iteration.  Kept as the
    oracle for the partition, the arithmetic and the output order.  A
    cluster of one is its seed as it is, with no moment match."""
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
        if len(cluster) == 1:
            merged_w.append(w[seed])
            merged_m.append(m[seed])
            merged_p.append(p[seed])
        else:
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
    if w.size > budget:
        top = np.sort(np.argsort(-w, kind="stable")[:budget])
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
       budget=st.integers(1, 100), merge_threshold=st.sampled_from([0.0, 1.0, 4.0, 16.0]))
def test_merge_matches_one_solve_per_seed(seed, count, dim, budget, merge_threshold):
    mix = random_mixture(np.random.default_rng(seed), count, dim)
    config = GmPhdConfig(merge_threshold=merge_threshold)
    # a distance within roundoff of the threshold may fall either side of
    # it under a different (equally exact) evaluation order
    d2 = pairwise_d2(mix, config)
    assume(not np.any(np.abs(d2 - merge_threshold) <= 1e-9 * merge_threshold))
    assert_bit_identical(prune_merge_cap(mix, config, budget),
                         reference_prune_merge_cap(mix, config, budget))


def straddling_mixture(count, block):
    """count components 100 apart in y, with unit variance there, and x
    within [-1, 1] against P_xx = 1e6, so that every x-window holds every
    component; only those placed next to another merge.  Ranked by weight,
    batches of `block` seeds straddle their clusters."""
    rank_weight = 1.0 - 0.004 * np.arange(count)
    means = np.zeros((count, 6))
    means[:, 0] = np.random.default_rng(3).uniform(-1.0, 1.0, count)
    means[:, 1] = 100.0 * np.arange(count)
    # a cluster seeded at rank 0 with members ranked in the second and
    # third batches, so it straddles the batches and its members' own
    # batches skip them
    means[[block + 5, count - 3], 1] = [1.0, -1.0]
    # the last seed of the first batch takes the first of the second
    means[block, 1] = means[block - 1, 1] + 1.5
    # a cluster inside the second batch, seeded after skipped components
    means[block + 9, 1] = means[block + 8, 1] + 0.5
    covs = np.broadcast_to(np.diag([1e6, 1.0, 1.0, 1.0, 1.0, 1.0]), (count, 6, 6)).copy()
    order = np.random.default_rng(7).permutation(count)
    return GaussianMixture(rank_weight[order], means[order], covs)


def test_merge_across_distance_blocks():
    # every window holds every live component, so a batch of k seeds holds
    # k times the live count of pairs: the batches are the 31 heaviest
    # seeds (4096 // 130), then 42 of the 96 still unmerged and the 54
    # that remain
    count = 130
    block = phd_gm.MERGE_PAIRS // count
    mix = straddling_mixture(count, block)
    config = GmPhdConfig()
    assert len(reference_prune_merge_cap(mix, config, count)) == count - 4
    assert_bit_identical(prune_merge_cap(mix, config, count),
                         reference_prune_merge_cap(mix, config, count))
    managed = prune_merge_cap(mix, config, block + 20)
    assert len(managed) == block + 20
    assert_bit_identical(managed, reference_prune_merge_cap(mix, config, block + 20))


@pytest.mark.parametrize("pairs", [1, 10**9], ids=["one-seed", "one-batch"])
def test_merge_does_not_depend_on_the_pair_budget(monkeypatch, pairs):
    mix = straddling_mixture(130, 31)
    expected = prune_merge_cap(mix, GmPhdConfig(), 130)
    monkeypatch.setattr(phd_gm, "MERGE_PAIRS", pairs)
    assert_bit_identical(prune_merge_cap(mix, GmPhdConfig(), 130), expected)


@pytest.mark.parametrize("base", [0.0, 1e4, -3.7e5])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("p_xx, dx", [(1.0, 2.0), (2.25, 3.0), (0.0625, 0.5)])
def test_merge_takes_a_pair_at_exactly_the_window_edge(base, sign, p_xx, dx):
    # dx = sqrt(threshold * P_xx) exactly, and nothing else apart: d2 is
    # exactly the threshold 4, the edge of the seed's x-window, and merges
    cov = np.diag([p_xx, 1.0, 1.0, 1.0, 1.0, 1.0])
    means = np.zeros((2, 6))
    means[:, 0] = [base, base + sign * dx]
    mix = GaussianMixture(np.array([0.6, 0.3]), means, np.stack([cov, cov]))
    managed = prune_merge_cap(mix, GmPhdConfig(), BUDGET)
    assert len(managed) == 1
    assert_bit_identical(managed, reference_prune_merge_cap(mix, GmPhdConfig(), BUDGET))
    # a hair beyond, it stays apart
    means[1, 0] = np.nextafter(means[1, 0], base + sign * 2.0 * dx)
    mix = GaussianMixture(np.array([0.6, 0.3]), means, np.stack([cov, cov]))
    assert len(prune_merge_cap(mix, GmPhdConfig(), BUDGET)) == 2


@pytest.mark.parametrize("axis", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("scale", [0.99, 1.01])
def test_merge_decides_a_pair_apart_off_the_x_axis_as_the_oracle(axis, scale):
    # the same x, so the x-window admits the pair, and a correlated
    # covariance: the whitened test alone decides, on either side of the
    # threshold
    rng = np.random.default_rng(axis)
    factor = rng.normal(size=(6, 6))
    cov = factor @ factor.T / 6 + 0.1 * np.eye(6)
    cov = 0.5 * (cov + cov.T)
    offset = np.zeros(6)
    offset[axis] = np.sqrt(scale * 4.0 / np.linalg.solve(cov, np.eye(6)[axis])[axis])
    means = np.stack([np.full(6, 5.0), np.full(6, 5.0) + offset])
    mix = GaussianMixture(np.array([0.6, 0.3]), means, np.stack([cov, cov]))
    managed = prune_merge_cap(mix, GmPhdConfig(), BUDGET)
    assert len(managed) == (1 if scale < 1 else 2)
    assert_bit_identical(managed, reference_prune_merge_cap(mix, GmPhdConfig(), BUDGET))


@pytest.mark.parametrize("spread", [0.0, 0.3], ids=["one-point", "jittered"])
def test_merge_of_a_dense_mixture_matches_the_oracle_in_bounded_memory(spread):
    # 400 co-located components kept at prune threshold 0: every window
    # holds all of them.  Whitening every pair in one batch peaks at 29-48
    # MB; batches of MERGE_PAIRS pairs keep the peak near 2 MB.
    import tracemalloc

    rng = np.random.default_rng(5)
    count = 400
    mix = random_mixture(rng, count, 6)
    mix = GaussianMixture(mix.weights, spread * rng.normal(size=(count, 6)), 0.01 * mix.covs)
    config = GmPhdConfig(prune_threshold=0.0)
    d2 = pairwise_d2(mix, config)
    assert not np.any(np.abs(d2 - config.merge_threshold) <= 1e-9 * config.merge_threshold)
    tracemalloc.start()
    try:
        managed = prune_merge_cap(mix, config, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    expected = reference_prune_merge_cap(mix, config, count)
    assert 1 <= len(expected) < count
    assert_bit_identical(managed, expected)


@pytest.mark.parametrize("rate", [10.0, 0.0], ids=["reference", "clean"])
def test_merge_matches_the_oracle_on_scenario_mixtures(monkeypatch, rate):
    # the corrected mixtures of 20 seeded steps of each benchmark workload
    import phdtrack.scenario as scenario

    seen = []
    real = scenario.prune_merge_cap

    def capture(mixture, config, budget):
        seen.append((mixture, config, budget))
        return real(mixture, config, budget)

    monkeypatch.setattr(scenario, "prune_merge_cap", capture)
    scenario.run_filter(scenario.ScenarioConfig(
        models=Models(clutter=ClutterModel(rate=rate)), filter_kind="gm", seed=0, t_end=20.0,
        runs=1))
    assert len(seen) == 20
    for mixture, config, budget in seen:
        assert_bit_identical(prune_merge_cap(mixture, config, budget),
                             reference_prune_merge_cap(mixture, config, budget))


@pytest.mark.parametrize("singular, far", [(0, 50.0), (1, 50.0), (1, 0.5)],
                         ids=["seed", "other-seed", "absorbed"])
def test_merge_raises_on_a_singular_covariance(singular, far):
    covs = np.broadcast_to(np.eye(6), (2, 6, 6)).copy()
    covs[singular] = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
    mix = GaussianMixture(np.array([0.9, 0.4]), np.array([[0.0] * 6, [far] * 6]), covs)
    with pytest.raises(np.linalg.LinAlgError):
        prune_merge_cap(mix, GmPhdConfig(), BUDGET)


def test_cap_keeps_heaviest_and_rescales():
    count = 10
    weights = 0.01 * np.arange(1, count + 1)
    means = np.zeros((count, 6))
    means[:, 0] = 100.0 * np.arange(count)  # far apart: no merging
    mix = GaussianMixture(weights, means, np.broadcast_to(np.eye(6), (count, 6, 6)).copy())
    managed = prune_merge_cap(mix, GmPhdConfig(), 3)
    assert len(managed) == 3
    kept = sorted(managed.means[:, 0])
    assert kept == [700.0, 800.0, 900.0]
    assert managed.mass == pytest.approx(mix.mass, rel=1e-12)


def test_extract_top_n():
    mix = GaussianMixture(
        np.array([0.9, 0.8, 0.4]),
        np.array([[1.0] * 6, [2.0] * 6, [3.0] * 6]),
        np.broadcast_to(np.eye(6), (3, 6, 6)).copy(),
    )
    n_hat, states = gm_extract(mix)
    # mass 2.1 rounds to 2: the two heaviest means, bit for bit, since a
    # mixture built without labels has one part per component
    assert n_hat == 2
    assert np.array_equal(states, mix.means[:2])
    shuffled = GaussianMixture(mix.weights[::-1], mix.means[::-1], mix.covs)
    assert np.array_equal(gm_extract(shuffled)[1], mix.means[:2])


def test_extract_zero_mass():
    n_hat, states = gm_extract(GaussianMixture.empty(6))
    assert n_hat == 0
    assert states.shape == (0, 6)
    light = GaussianMixture(np.array([0.2]), np.zeros((1, 6)),
                            np.broadcast_to(np.eye(6), (1, 6, 6)).copy())
    n_hat, states = gm_extract(light)
    assert n_hat == 0
    assert states.shape == (0, 6)


def test_config_validation():
    with pytest.raises(ValueError):
        GmPhdConfig(prune_threshold=-1.0)
    with pytest.raises(ValueError):
        GmPhdConfig(merge_threshold=-1.0)


def test_prune_merge_cap_rejects_a_budget_below_one():
    mix = GaussianMixture(np.array([0.5]), np.zeros((1, 6)), np.eye(6)[None])
    with pytest.raises(ValueError, match="budget"):
        prune_merge_cap(mix, GmPhdConfig(), 0)


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
        prune_merge_cap(bad, GmPhdConfig(), BUDGET)
