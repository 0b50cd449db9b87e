"""Truth simulation, scan generation, and the Monte Carlo driver."""

import numpy as np
import pytest

from phdtrack.gaussmix import GaussianMixture
from phdtrack.models import ClutterModel, DetectionSurvival, Models
from phdtrack.scenario import (
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
        ScenarioConfig(dt=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        ScenarioConfig(budget=0)
    with pytest.raises(ValueError):
        ScenarioConfig(runs=0)


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
    rec = RunRecord(0, 0, "engm", [], error="numerical failure at step 3: boom")
    assert rec.failed
    assert not RunRecord(0, 0, "engm", []).failed
    err = FilterNumericalError(3, ValueError("boom"))
    assert err.step == 3
    assert "step 3" in str(err)


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


@pytest.mark.parametrize("kind, corrupt", [
    # gm_predict: the survivor covariances F P F' + Q
    ("gm", _bad_process_noise),
    # gm_update (engm_update too): the posterior covariances of the measurement blocks
    ("gm", _bad_floor("phdtrack.phd_gm.floor_covariances")),
    ("engm", _bad_floor("phdtrack.phd_gm.floor_covariances")),
    # prune_merge_cap: the merged covariances
    ("gm", _unchecked_corrected_mixture),
    # kde_from_particles: one kernel per part
    ("engm", _bad_floor("phdtrack.gaussmix.floor_covariance")),
], ids=["gm-predict", "gm-update", "engm-update", "gm-merge", "engm-kde"])
def test_run_filter_reports_a_bad_computed_covariance(monkeypatch, kind, corrupt):
    overrides = corrupt(monkeypatch) or {}
    with pytest.raises(FilterNumericalError) as info:
        run_filter(tiny_config(filter_kind=kind, **overrides))
    assert info.value.step == 1
    assert type(info.value.__cause__) is ValueError
    assert "PSD" in str(info.value)

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
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_seeded_outputs_match_recorded_values(kind):
    records = run_filter(ScenarioConfig(t_end=20.0, seed=0, filter_kind=kind, runs=1))
    n_hat, ospa_total, n_components = GOLDEN[kind]
    assert [r.n_hat for r in records] == n_hat
    assert [r.n_components for r in records] == n_components
    assert [r.ospa_total for r in records] == pytest.approx(ospa_total, rel=0.0, abs=1e-12)
