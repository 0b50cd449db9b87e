"""Motion, measurement, birth, clutter, and detection models."""

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
    RadarMeasurementModel,
    dwna_process_noise,
    propagate_state,
    sample_birth_states,
    sample_clutter,
    sample_psd_noise,
    transition_matrix,
    wrap_angle,
)


# ---------------------------------------------------------------------------
# motion


def test_propagate_matches_closed_form():
    x = np.array([10.0, -5.0, 2.0, 1.5, 0.25, -3.0])
    for dt in (0.1, 1.0, 2.5):
        expected = x.copy()
        expected[:3] += dt * x[3:]
        assert propagate_state(x, dt) == pytest.approx(expected, abs=1e-10)


def test_propagate_batched():
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((30, 6)) * 50.0
    out = propagate_state(xs, 1.0)
    expected = xs.copy()
    expected[:, :3] += xs[:, 3:]
    assert out == pytest.approx(expected, abs=1e-9)


def test_transition_matrix_agrees_with_integrator():
    f = transition_matrix(2.0)
    x = np.array([1.0, -2.0, 3.0, 0.5, 0.25, -1.0])
    assert f @ x == pytest.approx(propagate_state(x, 2.0), abs=1e-10)


def test_dwna_process_noise_structure():
    q = dwna_process_noise(1.0, 0.05)
    assert q.shape == (6, 6)
    assert q == pytest.approx(q.T)
    # rank 3: driven by 3 acceleration components
    assert np.linalg.matrix_rank(q, tol=1e-12) == 3
    assert q[0, 0] == pytest.approx(0.05 ** 2 / 4.0)
    assert q[3, 3] == pytest.approx(0.05 ** 2)
    assert q[0, 3] == pytest.approx(0.05 ** 2 / 2.0)
    assert np.all(dwna_process_noise(1.0, 0.0) == 0.0)


def test_sample_psd_noise_zero_cov_consumes_stream():
    # a zero covariance must consume as many draws as a nonzero one so
    # downstream call sequences stay aligned
    rng_a = np.random.default_rng(9)
    rng_b = np.random.default_rng(9)
    out = sample_psd_noise(np.zeros((6, 6)), 4, rng_a)
    assert np.all(out == 0.0)
    sample_psd_noise(np.eye(6), 4, rng_b)
    assert rng_a.random() == rng_b.random()


def test_sample_psd_noise_covariance():
    rng = np.random.default_rng(17)
    q = dwna_process_noise(1.0, 1.0)
    draws = sample_psd_noise(q, 40000, rng)
    assert draws.mean(axis=0) == pytest.approx(np.zeros(6), abs=0.05)
    assert np.cov(draws.T, ddof=1) == pytest.approx(q, abs=0.05)


def test_motion_model_validation():
    with pytest.raises(ValueError):
        MotionModel(dt=0.0)
    with pytest.raises(ValueError):
        MotionModel(process_noise=np.eye(3))


# ---------------------------------------------------------------------------
# angles and radar geometry


def test_wrap_angle_principal_interval():
    assert wrap_angle(np.pi + 0.1) == pytest.approx(-np.pi + 0.1)
    assert wrap_angle(-np.pi - 0.1) == pytest.approx(np.pi - 0.1)
    assert wrap_angle(0.3) == pytest.approx(0.3)
    assert wrap_angle(2 * np.pi) == pytest.approx(0.0, abs=1e-12)
    many = wrap_angle(np.linspace(-20.0, 20.0, 101))
    assert np.all(many > -np.pi - 1e-12)
    assert np.all(many <= np.pi + 1e-12)


def test_radar_measure_hand_values():
    meas = RadarMeasurementModel()
    z = meas.measure(np.array([3.0, 4.0, 0.0, 9.0, 9.0, 9.0]))
    assert z == pytest.approx([5.0, np.arctan2(4.0, 3.0), 0.0])
    z = meas.measure(np.array([0.0, 1.0, 1.0, 0.0, 0.0, 0.0]))
    assert z == pytest.approx([np.sqrt(2.0), np.pi / 2.0, np.pi / 4.0])
    with pytest.raises(ValueError):
        meas.measure(np.zeros(6))


def test_radar_defaults():
    meas = RadarMeasurementModel()
    assert meas.dim == 3
    assert meas.sigmas == pytest.approx([1.0, np.deg2rad(0.5), np.deg2rad(0.5)])
    assert meas.noise_cov == pytest.approx(np.diag(meas.sigmas ** 2))
    assert list(meas.angular) == [False, True, False]
    with pytest.raises(ValueError):
        RadarMeasurementModel(sigma_range=0.0)


def test_radar_jacobian_against_finite_differences():
    meas = RadarMeasurementModel()
    rng = np.random.default_rng(31)
    eps = 1e-6
    for _ in range(100):
        x = rng.uniform([20.0, 20.0, 20.0, -3, -3, -3], [200.0, 200.0, 400.0, 3, 3, 3])
        h = meas.jacobian(x)
        fd = np.zeros((3, 6))
        for j in range(3):  # velocity columns are identically zero
            bump = np.zeros(6)
            bump[j] = eps
            fd[:, j] = (meas.measure(x + bump) - meas.measure(x - bump)) / (2 * eps)
        assert h[:, :3] == pytest.approx(fd[:, :3], rel=1e-5, abs=1e-8)
        assert np.all(h[:, 3:] == 0.0)


def test_radar_jacobian_batched_and_singular():
    meas = RadarMeasurementModel()
    xs = np.array([[3.0, 4.0, 1.0, 0, 0, 0], [10.0, 0.0, 5.0, 0, 0, 0]])
    hs = meas.jacobian(xs)
    assert hs.shape == (2, 3, 6)
    assert hs[0] == pytest.approx(meas.jacobian(xs[0]))
    with pytest.raises(ValueError):
        meas.jacobian(np.array([0.0, 0.0, 5.0, 0, 0, 0]))
    ok = meas.linearizable(np.array([[0.0, 0.0, 5.0, 0, 0, 0], [1.0, 0.0, 0.0, 0, 0, 0]]))
    assert list(ok) == [False, True]


def test_linear_measurement_model():
    h = np.hstack([np.eye(3), np.zeros((3, 3))])
    model = LinearMeasurementModel(h, 0.25 * np.eye(3))
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert model.measure(x) == pytest.approx([1.0, 2.0, 3.0])
    assert model.jacobian(x) == pytest.approx(h)
    assert model.dim == 3
    assert not model.angular.any()
    assert model.sigmas == pytest.approx([0.5, 0.5, 0.5])
    assert model.linearizable(np.zeros((4, 6))).all()
    with pytest.raises(ValueError):
        LinearMeasurementModel(h, np.eye(2))


# ---------------------------------------------------------------------------
# birth, clutter, detection


def test_birth_model_mass():
    birth = BirthModel()
    assert birth.count_per_step == 10
    assert birth.weight_each == pytest.approx(0.01)
    assert birth.mass_per_step == pytest.approx(0.1)
    assert BirthModel(count_per_step=0).mass_per_step == 0.0
    with pytest.raises(ValueError):
        BirthModel(weight_each=-0.5)


@pytest.mark.filterwarnings("error")
def test_birth_model_checks_its_covariance():
    with pytest.raises(ValueError, match="PSD"):
        BirthModel(cov=np.diag([2500.0, 2500.0, 2500.0, 25.0, 25.0, -25.0]))
    skew = np.diag([2500.0, 2500.0, 2500.0, 25.0, 25.0, 25.0])
    skew[0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        BirthModel(cov=skew)
    with pytest.raises(ValueError, match="birth mean"):
        BirthModel(mean=np.zeros(5))
    with pytest.raises(ValueError, match="birth mean"):
        BirthModel(cov=np.eye(5))


def test_sample_birth_states_moments():
    birth = BirthModel()
    rng = np.random.default_rng(4)
    draws = np.concatenate([sample_birth_states(birth, rng) for _ in range(3000)])
    assert draws.shape == (30000, 6)
    assert draws.mean(axis=0) == pytest.approx(birth.mean, abs=1.5)
    std = draws.std(axis=0, ddof=1)
    assert std == pytest.approx(np.sqrt(np.diag(birth.cov)), rel=0.05)


def test_clutter_model_kappa():
    clutter = ClutterModel()
    assert clutter.rate == 10.0
    assert clutter.kappa == pytest.approx(6.25e-7, rel=1e-12)
    assert ClutterModel(kappa_override=1e-3).kappa == 1e-3
    with pytest.raises(ValueError):
        ClutterModel(rate=-1.0)
    with pytest.raises(ValueError):
        # density must be the reciprocal of the box volume
        ClutterModel(density=1e-6)
    region = np.array([[0.0, 10.0], [0.0, 10.0], [0.0, 10.0]])
    assert ClutterModel(rate=5.0, region=region, density=1e-3).kappa == pytest.approx(5e-3)


def test_clutter_intensity_radar_interior_value():
    clutter = ClutterModel()
    meas = RadarMeasurementModel()
    points = np.array([[120.0, 80.0, 150.0], [10.0, 190.0, 5.0], [199.0, 1.0, 399.0]])
    z = meas.measure(points)
    # the inverse map returns the Cartesian point that produced z
    assert meas.position(z) == pytest.approx(points, rel=1e-12)
    rho, el = z[:, 0], z[:, 2]
    expected = 10.0 * 6.25e-8 * rho ** 2 * np.cos(el)
    assert clutter.intensity(z, meas) == pytest.approx(expected, rel=1e-12)
    # near r = 200 m the measurement-space intensity is about 1e-2 per (m rad^2)
    assert 5e-3 < clutter.intensity(z[:1], meas)[0] < 2e-2


def test_clutter_intensity_zero_outside_box_image():
    clutter = ClutterModel()
    meas = RadarMeasurementModel()
    z = meas.measure(np.array([
        [-10.0, 50.0, 50.0],     # negative x
        [50.0, 50.0, -1.0],      # below the floor
        [50.0, 50.0, 401.0],     # above the ceiling
        [250.0, 10.0, 10.0],     # beyond x = 200
    ]))
    assert np.array_equal(clutter.intensity(z, meas), np.zeros(4))
    assert clutter.intensity(np.zeros((0, 3)), meas).shape == (0,)
    # no clutter, no intensity anywhere
    inside = meas.measure(np.array([[50.0, 50.0, 50.0]]))
    assert np.array_equal(ClutterModel(rate=0.0).intensity(inside, meas), np.zeros(1))


def test_clutter_intensity_integrates_to_rate():
    # Monte Carlo over the bounding box of the image: range up to the far
    # corner, azimuth and elevation in [0, pi/2]
    clutter = ClutterModel()
    meas = RadarMeasurementModel()
    r_max = float(np.linalg.norm([200.0, 200.0, 400.0]))
    rng = np.random.default_rng(21)
    count = 400_000
    z = rng.random((count, 3)) * [r_max, np.pi / 2, np.pi / 2]
    volume = r_max * (np.pi / 2) ** 2
    kappa = clutter.intensity(z, meas)
    estimate = volume * kappa.mean()
    stderr = volume * kappa.std() / np.sqrt(count)
    assert abs(estimate - clutter.rate) < 4.0 * stderr
    assert abs(estimate - clutter.rate) < 0.02 * clutter.rate


def test_clutter_intensity_linear_model_and_override():
    h = np.hstack([np.eye(3), np.zeros((3, 3))])
    meas = LinearMeasurementModel(h, 0.25 * np.eye(3))
    z = np.array([[10.0, 20.0, 30.0], [150.0, 190.0, 350.0], [300.0, 20.0, 30.0]])
    kappa = ClutterModel().intensity(z, meas)
    assert kappa[:2] == pytest.approx([6.25e-7, 6.25e-7], rel=1e-12)
    assert kappa[2] == 0.0
    # a scaled position map divides the intensity by its determinant
    scaled = LinearMeasurementModel(np.hstack([2.0 * np.eye(3), np.zeros((3, 3))]), np.eye(3))
    assert ClutterModel().intensity(z[:1] * 2.0, scaled) == pytest.approx([6.25e-7 / 8.0])
    # a map that does not determine the position has no change of variables
    velocity = LinearMeasurementModel(np.hstack([np.eye(3), np.eye(3)]), np.eye(3))
    with pytest.raises(ValueError):
        ClutterModel().intensity(z, velocity)
    # the override is a constant measurement-space intensity, inside the box or not
    override = ClutterModel(kappa_override=2.5e-3)
    radar = RadarMeasurementModel()
    far = np.array([[1000.0, 0.3, 0.2], [100.0, -2.0, 0.1], [120.0, 0.7, 0.5]])
    assert np.array_equal(override.intensity(far, radar), np.full(3, 2.5e-3))
    assert np.array_equal(override.intensity(z, velocity), np.full(3, 2.5e-3))


def test_sample_clutter_geometry_and_rate():
    clutter = ClutterModel()
    meas = RadarMeasurementModel()
    rng = np.random.default_rng(8)
    counts = []
    for _ in range(300):
        scan = sample_clutter(clutter, rng, meas)
        counts.append(len(scan))
        if len(scan):
            # inside the box the range is bounded by the far corner
            assert np.all(scan[:, 0] <= np.linalg.norm([200.0, 200.0, 400.0]))
            assert np.all(scan[:, 0] > 0.0)
            # box x, y, z >= 0 puts azimuth in [0, pi/2] and elevation in [0, pi/2]
            assert np.all(scan[:, 1] >= 0.0)
            assert np.all(scan[:, 1] <= np.pi / 2 + 1e-12)
            assert np.all(scan[:, 2] >= 0.0)
    mean_count = np.mean(counts)
    # Poisson(10) over 300 trials: standard error ~ 0.18
    assert abs(mean_count - 10.0) < 1.0
    assert len(sample_clutter(ClutterModel(rate=0.0), rng, meas)) == 0


def test_detection_survival_defaults_and_validation():
    ds = DetectionSurvival()
    assert ds.p_detect == pytest.approx(0.98)
    assert ds.p_survive == pytest.approx(0.99)
    with pytest.raises(ValueError):
        DetectionSurvival(p_detect=1.5)
    with pytest.raises(ValueError):
        DetectionSurvival(p_survive=-0.1)


def test_scan_container():
    scan = MeasurementScan(np.zeros((4, 3)))
    assert len(scan) == 4
    assert len(MeasurementScan(np.zeros((0, 3)))) == 0


def test_models_bundle_defaults():
    models = Models()
    assert isinstance(models.measurement, RadarMeasurementModel)
    assert models.birth.mass_per_step == pytest.approx(0.1)
    assert models.clutter.kappa == pytest.approx(6.25e-7)
    assert models.spawn.components == ()
    assert models.motion.dt == 1.0
