"""Truth simulation, scan generation, and the Monte Carlo driver."""

import numpy as np
import pytest

from phdtrack.gaussmix import GaussianMixture, NumericalCheckError
from phdtrack.models import (
    BirthModel,
    ClutterModel,
    DetectionSurvival,
    LinearMeasurementModel,
    Models,
    MotionModel,
    dwna_process_noise,
)
from phdtrack.phd_gm import GmPhdConfig
from phdtrack.phd_smc import ParticleSet
from phdtrack.scenario import (
    FILTER_KINDS,
    FilterNumericalError,
    RunRecord,
    ScenarioConfig,
    generate_scan,
    run_filter,
    run_monte_carlo,
    simulate_truth,
)


def tiny_config(**overrides):
    defaults = dict(t_end=5.0, budget=50, runs=2, seed=0, filter_kind="engm")
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def test_config_defaults():
    config = ScenarioConfig()
    assert config.n_steps == 100
    assert config.budget == 250
    assert config.runs == 25
    assert config.seed == 0
    assert config.filter_kind == "engm"
    assert config.ospa.cutoff == 100.0
    assert config.ospa.order == 2.0
    assert config.initial_targets.shape == (2, 6)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(filter_kind="ukf")
    with pytest.raises(ValueError):
        ScenarioConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        ScenarioConfig(budget=0)
    with pytest.raises(ValueError):
        ScenarioConfig(runs=0)
    # t_end / dt rounds to no step (0.5 rounds to 0): nothing to score
    for t_end, dt in [(0.0, 1.0), (0.5, 1.0), (1.25, 2.5)]:
        models = Models(motion=MotionModel(dt=dt, process_noise=dwna_process_noise(dt, 0.05)))
        with pytest.raises(ValueError, match=rf"t_end = {t_end} gives no step of dt = {dt}"):
            ScenarioConfig(t_end=t_end, models=models)
    assert ScenarioConfig(t_end=0.6, runs=1).n_steps == 1


AT_ORIGIN_AT_STEP_5 = np.array([[5.0, 5.0, 5.0, -1.0, -1.0, -1.0]])


@pytest.mark.parametrize("targets, error", [
    (AT_ORIGIN_AT_STEP_5, "target 0 at step 5: measurement undefined"),
    (np.vstack([ScenarioConfig().initial_targets, AT_ORIGIN_AT_STEP_5]),
     "target 2 at step 5: measurement undefined"),
    # passes the origin at t = 5.5, between scans
    (np.array([[5.5, 5.5, 5.5, -1.0, -1.0, -1.0]]), None),
    (np.zeros((0, 6)), None),
])
def test_config_rejects_a_truth_no_scan_can_measure(targets, error):
    if error is None:
        ScenarioConfig(initial_targets=targets, t_end=10.0)
    else:
        with pytest.raises(ValueError, match=error):
            ScenarioConfig(initial_targets=targets, t_end=10.0)
        # a run that ends before the target gets there can measure it
        ScenarioConfig(initial_targets=targets, t_end=4.0)


def test_simulate_truth_closed_form():
    config = ScenarioConfig()
    truth = simulate_truth(config)
    assert truth.shape == (101, 2, 6)
    x0 = config.initial_targets
    assert truth[0] == pytest.approx(x0)
    for k in (1, 37, 100):
        assert truth[k, :, :3] == pytest.approx(x0[:, :3] + k * x0[:, 3:])
        assert truth[k, :, 3:] == pytest.approx(x0[:, 3:])
    # the two targets cross near mid-run and the z coordinates climb
    assert truth[50, 0, :2] == pytest.approx(truth[50, 1, :2], abs=1e-9)
    assert truth[100, 0, 2] == pytest.approx(250.0)
    # the filters predict over models.motion.dt, so the truth steps by it too
    motion = MotionModel(dt=2.0, process_noise=dwna_process_noise(2.0, 0.05))
    config = ScenarioConfig(models=Models(motion=motion), t_end=30.0)
    assert config.n_steps == 15
    truth = simulate_truth(config)
    for k in (1, 7, 15):
        assert truth[k, :, :3] == pytest.approx(x0[:, :3] + 2.0 * k * x0[:, 3:], rel=1e-15)


def test_generate_scan_detection_only():
    models = Models(clutter=ClutterModel(rate=0.0),
                    detection=DetectionSurvival(p_detect=1.0, p_survive=0.99))
    truth = simulate_truth(ScenarioConfig())[10]
    rng = np.random.default_rng(0)
    scan = generate_scan(truth, models, rng)
    assert len(scan) == 2
    expected = models.measurement.measure(truth)
    # shuffled order: match rows by nearest range
    got = scan.values[np.argsort(scan.values[:, 0])]
    expected = expected[np.argsort(expected[:, 0])]
    assert got[:, 0] == pytest.approx(expected[:, 0], abs=5.0)
    assert got[:, 1:] == pytest.approx(expected[:, 1:], abs=0.05)


def test_generate_scan_noise_has_the_measurement_covariance():
    # a correlated R: scans drawn with diag(R) only would read 0 off the diagonal
    r = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 0.25]])
    models = Models(measurement=LinearMeasurementModel(np.eye(3, 6), r),
                    clutter=ClutterModel(rate=0.0),
                    detection=DetectionSurvival(p_detect=1.0, p_survive=0.99))
    x = np.array([50.0, 60.0, 70.0, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(2)
    noise = np.array([generate_scan(x, models, rng).values[0] - x[:3] for _ in range(20_000)])
    assert np.cov(noise.T) == pytest.approx(r, abs=0.05)


def test_generate_scan_missed_detections():
    models = Models(clutter=ClutterModel(rate=0.0),
                    detection=DetectionSurvival(p_detect=0.0, p_survive=0.99))
    truth = simulate_truth(ScenarioConfig())[10]
    scan = generate_scan(truth, models, np.random.default_rng(0))
    assert len(scan) == 0
    assert scan.values.shape == (0, 3)


def test_generate_scan_clutter_count():
    models = Models(detection=DetectionSurvival(p_detect=0.0, p_survive=0.99))
    truth = simulate_truth(ScenarioConfig())[10]
    rng = np.random.default_rng(1)
    counts = [len(generate_scan(truth, models, rng)) for _ in range(200)]
    assert abs(np.mean(counts) - 10.0) < 1.0  # Poisson(10) clutter only


def test_run_filter_records():
    for kind in ("gm", "smc", "engm"):
        records = run_filter(tiny_config(filter_kind=kind))
        assert [r.k for r in records] == [1, 2, 3, 4, 5]
        for rec in records:
            assert rec.n_true == 2
            assert rec.truth.shape == (2, 6)
            assert 0.0 <= rec.ospa_total <= 100.0 + 1e-12
            assert rec.ospa_total ** 2 == pytest.approx(
                rec.ospa_loc ** 2 + rec.ospa_card ** 2, rel=1e-9, abs=1e-9)
            assert rec.n_hat >= 0
            assert rec.wall_time >= 0.0
            if kind in ("smc", "engm"):
                assert rec.n_components == 50
            if rec.n_hat and rec.extracted.size:
                assert rec.extracted.shape[1] == 6


def test_run_filter_deterministic():
    a = run_filter(tiny_config())
    b = run_filter(tiny_config())
    assert [r.n_hat for r in a] == [r.n_hat for r in b]
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.extracted, rb.extracted)
        assert ra.ospa_total == rb.ospa_total


def test_run_filter_seed_changes_draws():
    a = run_filter(tiny_config())
    b = run_filter(tiny_config(seed=99))
    assert any(not np.array_equal(ra.extracted, rb.extracted) for ra, rb in zip(a, b))


@pytest.mark.parametrize("kind", FILTER_KINDS)
def test_budget_sizes_every_filter(kind):
    """One budget: it caps gm's managed mixture and sizes the smc and engm
    clouds, at every step of the reference scenario."""
    sizes = [r.n_components for r in run_filter(ScenarioConfig(budget=5, filter_kind=kind))]
    assert len(sizes) == 100
    if kind == "gm":
        assert max(sizes) <= 5
    else:
        assert sizes == [5] * 100


@pytest.mark.parametrize("kind, births, prune", [
    pytest.param(kind, births, prune,
                 id=(kind if births else f"{kind}-no-births") + ("-prune-0" if prune == 0 else ""))
    for prune in (GmPhdConfig().prune_threshold, 0.0)
    for births in (10, 0) for kind in FILTER_KINDS
])
def test_zero_mass_correction_keeps_the_filter_dark(kind, births, prune):
    """No targets, no clutter and certain detection: every correction has
    zero mass, so every step's intensity is empty, with births or without,
    at the default prune threshold and at 0."""
    config = ScenarioConfig(initial_targets=np.zeros((0, 6)), t_end=5.0, filter_kind=kind,
                            gm=GmPhdConfig(prune_threshold=prune),
                            models=Models(birth=BirthModel(count_per_step=births),
                                          clutter=ClutterModel(rate=0.0),
                                          detection=DetectionSurvival(p_detect=1.0)))
    records = run_filter(config)
    assert [(r.n_hat, r.ospa_total, r.n_components, r.extracted.shape) for r in records] \
        == [(0, 0.0, 0, (0, 6))] * 5


def test_monte_carlo_mean_matches_hand_aggregate():
    from dataclasses import replace

    config = tiny_config(runs=2)
    summary, records = run_monte_carlo(config)
    assert summary.failures == 0
    assert len(records) == 2
    assert records[0].seed == 0 and records[1].seed == 1
    by_hand = [run_filter(replace(config, seed=r)) for r in (0, 1)]
    for i in range(config.n_steps):
        expected_ospa = np.mean([steps[i].ospa_total for steps in by_hand])
        expected_n = np.mean([steps[i].n_hat for steps in by_hand])
        assert summary.mean_ospa[i] == pytest.approx(expected_ospa, rel=1e-12)
        assert summary.mean_n_hat[i] == pytest.approx(expected_n, rel=1e-12)


def test_summary_window_mean_is_inclusive():
    summary, _ = run_monte_carlo(tiny_config(runs=1))
    manual = summary.mean_ospa[1:4].mean()  # steps k = 2, 3, 4
    assert summary.mean_over(summary.mean_ospa, 2, 4) == pytest.approx(manual, rel=1e-12)


def test_run_record_failure_flag():
    rec = RunRecord(0, 0, "engm", [], error="numerical failure at step 3, stage update: boom")
    assert rec.failed
    assert not RunRecord(0, 0, "engm", []).failed
    err = FilterNumericalError(3, "update", ValueError("boom"))
    assert err.step == 3
    assert err.stage == "update"
    assert "step 3, stage update: boom" in str(err)


def _negative_definite(covs):
    """-1e9 I in place of every matrix of an (n, n) matrix or a (J, n, n)
    stack: more negative than moment matching over any spread of the
    scenario's means can offset."""
    return np.broadcast_to(-1e9 * np.eye(covs.shape[-1]), covs.shape).copy()


def _bad_process_noise(monkeypatch):
    from types import SimpleNamespace

    from phdtrack.models import transition_matrix

    # a motion model whose process noise -10 I was never validated
    return {"models": Models(motion=SimpleNamespace(
        dt=1.0, transition=transition_matrix(1.0), process_noise=-10.0 * np.eye(6)))}


def _bad_floor(name):
    def corrupt(monkeypatch):
        monkeypatch.setattr(name, _negative_definite)
    return corrupt


def _unchecked_corrected_mixture(monkeypatch):
    import phdtrack.scenario as scenario

    real = scenario.gm_update

    def update(*args):
        corrected = real(*args)
        return GaussianMixture._assemble(corrected.weights, corrected.means,
                                         _negative_definite(corrected.covs), corrected.parts)

    monkeypatch.setattr(scenario, "gm_update", update)


@pytest.mark.parametrize("kind, corrupt, stage", [
    # gm_predict: the survivor covariances F P F' + Q
    ("gm", _bad_process_noise, "predict"),
    # gm_update (engm_update too): the posterior covariances of the measurement blocks
    ("gm", _bad_floor("phdtrack.phd_gm.floor_covariances"), "update"),
    ("engm", _bad_floor("phdtrack.phd_gm.floor_covariances"), "update"),
    # prune_merge_cap: the merged covariances
    ("gm", _unchecked_corrected_mixture, "manage"),
    # kde_from_particles: one kernel per part
    ("engm", _bad_floor("phdtrack.gaussmix.floor_covariances"), "predict"),
], ids=["gm-predict", "gm-update", "engm-update", "gm-merge", "engm-kde"])
def test_run_filter_reports_a_bad_computed_covariance(monkeypatch, kind, corrupt, stage):
    overrides = corrupt(monkeypatch) or {}
    with pytest.raises(FilterNumericalError) as info:
        run_filter(tiny_config(filter_kind=kind, **overrides))
    assert info.value.step == 1
    assert info.value.stage == stage
    assert f"step 1, stage {stage}:" in str(info.value)
    assert type(info.value.__cause__) is NumericalCheckError
    assert "PSD" in str(info.value)


@pytest.mark.parametrize("kind, name, stage", [
    ("gm", "gm_extract", "extract"), ("smc", "smc_resample", "resample"),
    ("smc", "cluster_extract", "extract"), ("engm", "engm_resample", "resample"),
])
def test_run_filter_names_the_failing_stage(monkeypatch, kind, name, stage):
    # the stages that no corrupted covariance reaches above
    import phdtrack.scenario as scenario

    def broken(*args):
        raise NumericalCheckError("bad mass")

    monkeypatch.setattr(scenario, name, broken)
    with pytest.raises(FilterNumericalError, match=f"step 1, stage {stage}: bad mass") as info:
        run_filter(tiny_config(filter_kind=kind))
    assert info.value.stage == stage


def test_run_filter_reports_overflowing_kmeans_at_extract(monkeypatch):
    # finite states around 1e160: every squared distance overflows, so the
    # k-means++ seeding draws from weights of infinite sum, which
    # select_by_weight rejects, and the failure is extract's
    import phdtrack.scenario as scenario

    def far_cloud(*args):
        states = np.random.default_rng(5).standard_normal((50, 6)) * 1e160
        return ParticleSet(states, np.full(50, 0.04))

    monkeypatch.setattr(scenario, "smc_resample", far_cloud)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FilterNumericalError) as info:
        run_filter(tiny_config(filter_kind="smc"))
    assert (info.value.step, info.value.stage) == (1, "extract")
    assert type(info.value.__cause__) is NumericalCheckError
    assert "finite sum" in str(info.value)


@pytest.mark.parametrize("kind, stage", [
    ("gm", "gm_update"), ("smc", "smc_update"), ("engm", "engm_update"),
])
def test_run_filter_lets_a_programming_error_through(monkeypatch, kind, stage):
    import phdtrack.scenario as scenario

    def broken(*args):
        raise ValueError("not a numerical failure")

    monkeypatch.setattr(scenario, stage, broken)
    # FilterNumericalError is not a ValueError, so only the original gets here
    with pytest.raises(ValueError, match="not a numerical failure"):
        run_filter(tiny_config(filter_kind=kind))


@pytest.mark.parametrize("kind", ["gm", "smc", "engm"])
def test_seeded_run_takes_no_eigendecomposition(monkeypatch, kind):
    # a check that passes, and a floor that has nothing to do, each cost
    # one Cholesky factorization; eigenvalues only decide a failed one.
    # The process noise and the birth covariance are factored once, when
    # the models are built, so the config is built before counting.
    config = ScenarioConfig(t_end=20.0, seed=0, filter_kind=kind, runs=1)
    calls = []

    def counted(real):
        def count(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return count

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    run_filter(config)
    assert calls == []


@pytest.mark.parametrize("kind, predict", [("gm", "gm_predict"), ("engm", "engm_predict")])
def test_run_filter_names_an_innovation_covariance_that_is_not_positive_definite(
        monkeypatch, kind, predict):
    # a predicted covariance that never passed a check makes S = H P H' + R
    # indefinite: the corrector's one factorization of S fails, at update
    import phdtrack.scenario as scenario

    def indefinite(*args):
        x = np.array([60.0, 70.0, 80.0, 0.5, -0.5, 2.0])
        return GaussianMixture._assemble(np.array([1.0]), x[None],
                                         np.diag([-100.0, -100.0, -100.0, 1.0, 1.0, 1.0])[None])

    monkeypatch.setattr(scenario, predict, indefinite)
    with pytest.raises(FilterNumericalError) as info:
        run_filter(tiny_config(filter_kind=kind))
    assert (info.value.step, info.value.stage) == (1, "update")
    assert "step 1, stage update:" in str(info.value)
    assert type(info.value.__cause__) is np.linalg.LinAlgError


# Per-step outputs of the reference scenario (seed 0, first 20 steps):
# n_hat, OSPA and component count.  n_hat and OSPA were recorded before
# covariances were checked once where computed, the component counts
# (which pin gm's merge partition) before the merge distances were batched.
# Both changes were meant to leave them bit-identical; a change that moves
# them on purpose updates these values and says why.
GOLDEN = {
    "gm": (
        [0, 0, 1, 2, 2, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2],
        [100.0, 100.0, 70.71475650366081, 1.025193456772516, 0.5128156785778221,
         70.74508394928054, 1.8289609448667206, 0.7814637420790138, 1.5288159521616704,
         1.7259026994196072, 1.4754444845794275, 1.039664789577761, 0.8186727260216562,
         1.1153081662295887, 0.6397589387272872, 70.71337395697162, 0.5018489234717086,
         0.6498222627674008, 1.1063984850020483, 1.39251438483907],
        [98, 133, 163, 145, 87, 102, 134, 148, 155, 139, 140, 121, 145, 93, 84, 73, 83, 77,
         105, 125],
    ),
    "engm": (
        [0, 1, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2],
        [100.0, 70.71880457288108, 1.1704104343688504, 1.85690840795962, 1.700326460616106,
         70.77101739476875, 2.5406498144799086, 1.2291045754781762, 1.8400140329788586,
         2.037327678202128, 1.7362171174593901, 1.0103021156834648, 1.144040181537501,
         1.5384935446347243, 0.9240213331394316, 70.71798453750148, 1.2277417182203103,
         1.2201642591568556, 1.7340258172116678, 1.8898108199241876],
        [250] * 20,
    ),
    # smc is dark for all 20 steps of the reference scenario (n_hat 0,
    # OSPA 100), which pins nothing, so its entry is the clean scenario's
    # (GOLDEN_MODELS), where it tracks
    "smc": (
        [1, 1, 2, 0, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1],
        [73.94709922436498, 73.69292500375003, 22.13096277809569, 100.0, 24.93455000722024,
         27.422731886999532, 30.76058851085076, 72.34568209756164, 29.076592362450814,
         27.054320451348453, 24.62313761946466, 24.293503114643908, 26.168883539453496,
         28.531293058690814, 71.06539935868066, 71.0799972236441, 71.47797738190557,
         72.08660204252622, 72.92123530458991, 73.97845431897808],
        [250] * 20,
    ),
}
GOLDEN_MODELS = {"smc": Models(clutter=ClutterModel(rate=0.0))}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_seeded_outputs_match_recorded_values(kind):
    records = run_filter(ScenarioConfig(t_end=20.0, seed=0, filter_kind=kind, runs=1,
                                        models=GOLDEN_MODELS.get(kind, Models())))
    n_hat, ospa_total, n_components = GOLDEN[kind]
    assert [r.n_hat for r in records] == n_hat
    assert [r.n_components for r in records] == n_components
    assert [r.ospa_total for r in records] == pytest.approx(ospa_total, rel=0.0, abs=1e-12)
