"""Acceptance suite: one test per release criterion.

Each criterion is a separate test so the verbose run shows one pass or
fail line apiece.  Every test also prints its measured numbers; run
pytest with -rA (or -s) to see them for passing tests.

The statistical comparison (criteria 6a, 6b, 6c, 7) shares one module
scoped Monte Carlo session: 25 paired runs of each filter on identical
scans, about two minutes of compute.
"""

import itertools
import json

import numpy as np
import pytest

from phdtrack.gaussmix import GaussianMixture, silverman_bandwidth
from phdtrack.metrics import OspaParams, assignment_min_cost, ospa
from phdtrack.models import (
    BirthModel,
    ClutterModel,
    DetectionSurvival,
    LinearMeasurementModel,
    MeasurementScan,
    Models,
    MotionModel,
    dwna_process_noise,
    propagate_state,
    wrap_angular,
)
from phdtrack.phd_engm import EngmPhdState, engm_predict, engm_resample, engm_update
from phdtrack.phd_gm import GmPhdConfig, gm_predict, gm_update, prune_merge_cap
from phdtrack.phd_smc import ParticleSet, smc_predict, smc_resample, smc_update
from phdtrack.scenario import (
    ScenarioConfig,
    _initial_cloud,
    _initial_mixture,
    generate_scan,
    run_monte_carlo,
    simulate_truth,
)
from reference_engmf import reference_engmf_step


# ---------------------------------------------------------------------------
# criterion 1: the intensity recursion collapses to the single-target
# reference filter in the degenerate configuration


def test_criterion_1_reduction_to_reference_filter():
    budget = 100
    models = Models(birth=BirthModel(count_per_step=0), clutter=ClutterModel(rate=0.0),
                    detection=DetectionSurvival(p_detect=1.0, p_survive=1.0))
    meas = models.measurement
    rng_scan = np.random.default_rng(np.random.SeedSequence([7, 0]))
    rng_a = np.random.default_rng(np.random.SeedSequence([7, 1]))
    rng_ref = np.random.default_rng(np.random.SeedSequence([7, 1]))
    x_true = np.array([60.0, 50.0, 70.0, 0.5, -0.5, 2.0])
    states = x_true + np.random.default_rng(3).standard_normal((budget, 6))
    states_ref = states.copy()
    state = EngmPhdState(ParticleSet(states, np.full(budget, 1.0 / budget)))
    worst_particles = 0.0
    worst_weights = 0.0
    worst_means = 0.0
    worst_covs = 0.0
    for _ in range(50):
        x_true = propagate_state(x_true, 1.0)
        z = wrap_angular(meas.measure(x_true) + meas.sigmas * rng_scan.standard_normal(3),
                         meas.angular)

        predicted = engm_predict(state, models, rng_a)
        corrected = engm_update(predicted, MeasurementScan(z[None]), models)
        state = engm_resample(corrected, budget, rng_a)

        # the hand-built EnGMF, on the same draws
        reference, states_ref = reference_engmf_step(states_ref, z, models, rng_ref)

        # the intensity posterior is the zero-weight missed block followed
        # by the measurement-corrected block; compare the live block
        assert np.all(corrected.weights[:budget] == 0.0)
        worst_weights = max(worst_weights,
                            float(np.abs(corrected.weights[budget:] - reference.weights).max()))
        worst_means = max(worst_means,
                          float(np.abs(corrected.means[budget:] - reference.means).max()))
        worst_covs = max(worst_covs, float(np.abs(corrected.covs[budget:] - reference.covs).max()))
        worst_particles = max(worst_particles,
                              float(np.abs(state.particles.states - states_ref).max()))

    print(f"criterion 1: max deviations over 50 steps: weights {worst_weights:.2e}, "
          f"means {worst_means:.2e}, covs {worst_covs:.2e}, particles {worst_particles:.2e}")
    assert worst_weights < 1e-12
    assert worst_means < 1e-12
    assert worst_covs < 1e-12
    assert worst_particles < 1e-12


# ---------------------------------------------------------------------------
# criterion 2: single-target linear configuration equals a Kalman filter


def test_criterion_2_kalman_oracle():
    h = np.hstack([np.eye(3), np.zeros((3, 3))])
    models = Models(
        motion=MotionModel(dt=1.0, process_noise=dwna_process_noise(1.0, 0.05)),
        measurement=LinearMeasurementModel(h, 0.25 * np.eye(3)),
        birth=BirthModel(count_per_step=0),
        clutter=ClutterModel(rate=0.0),
        detection=DetectionSurvival(p_detect=1.0, p_survive=1.0),
    )
    f = models.motion.transition
    q = models.motion.process_noise
    r = models.measurement.noise_cov
    rng = np.random.default_rng(200)
    x_true = np.array([50.0, 40.0, 60.0, 0.5, -0.3, 1.0])
    x_kf = np.array([45.0, 45.0, 55.0, 0.0, 0.0, 0.0])
    p_kf = np.diag([25.0, 25.0, 25.0, 1.0, 1.0, 1.0])
    posterior = GaussianMixture(np.array([1.0]), x_kf[None].copy(), p_kf[None].copy())
    worst_mean = worst_cov = 0.0
    for _ in range(50):
        x_true = f @ x_true
        z = h @ x_true + 0.5 * rng.standard_normal(3)
        predicted = gm_predict(posterior, models, rng)
        corrected = gm_update(predicted, MeasurementScan(z[None]), models)
        x_kf = f @ x_kf
        p_kf = f @ p_kf @ f.T + q
        s = h @ p_kf @ h.T + r
        gain = p_kf @ h.T @ np.linalg.inv(s)
        x_kf = x_kf + gain @ (z - h @ x_kf)
        p_kf = (np.eye(6) - gain @ h) @ p_kf
        p_kf = 0.5 * (p_kf + p_kf.T)
        i = int(np.argmax(corrected.weights))
        worst_mean = max(worst_mean, float(np.abs(corrected.means[i] - x_kf).max()))
        worst_cov = max(worst_cov, float(np.abs(corrected.covs[i] - p_kf).max()))
        posterior = prune_merge_cap(corrected, GmPhdConfig(), ScenarioConfig().budget)
    print(f"criterion 2: max |mean - Kalman| {worst_mean:.2e}, "
          f"max |cov - Kalman| {worst_cov:.2e} over 50 steps")
    assert worst_mean < 1e-9
    assert worst_cov < 1e-9


# ---------------------------------------------------------------------------
# criterion 3: mass ledgers over a 100-step run of each filter


def test_criterion_3_mass_ledgers():
    config = ScenarioConfig()
    models = config.models
    p_s = models.detection.p_survive
    birth_mass = models.birth.mass_per_step
    truth = simulate_truth(config)
    worst = {"gm": 0.0, "smc": 0.0, "engm": 0.0, "resample": 0.0}

    def ledger_gap(predicted_mass, carried_mass):
        expected = p_s * carried_mass + birth_mass
        return abs(predicted_mass - expected) / expected

    # Gaussian-mixture filter
    rng = np.random.default_rng(np.random.SeedSequence([0, 1]))
    rng_scan = np.random.default_rng(np.random.SeedSequence([0, 0]))
    mixture = _initial_mixture(config)
    for k in range(1, config.n_steps + 1):
        scan = generate_scan(truth[k], models, rng_scan)
        predicted = gm_predict(mixture, models, rng)
        worst["gm"] = max(worst["gm"], ledger_gap(predicted.mass, mixture.mass))
        corrected = gm_update(predicted, scan, models)
        managed = prune_merge_cap(corrected, config.gm, config.budget)
        # mixture management must not change the carried mass at all
        assert abs(managed.mass - corrected.mass) <= 1e-12 * max(corrected.mass, 1.0)
        mixture = managed

    # particle filter
    rng = np.random.default_rng(np.random.SeedSequence([0, 1]))
    rng_scan = np.random.default_rng(np.random.SeedSequence([0, 0]))
    cloud = _initial_cloud(config, rng)
    for k in range(1, config.n_steps + 1):
        scan = generate_scan(truth[k], models, rng_scan)
        predicted = smc_predict(cloud, models, rng)
        worst["smc"] = max(worst["smc"], ledger_gap(predicted.mass, cloud.mass))
        updated = smc_update(predicted, scan, models)
        resampled = smc_resample(updated, config.budget, rng)
        worst["resample"] = max(
            worst["resample"], abs(resampled.mass - updated.mass) / max(updated.mass, 1e-300))
        cloud = resampled

    # ensemble filter
    rng = np.random.default_rng(np.random.SeedSequence([0, 1]))
    rng_scan = np.random.default_rng(np.random.SeedSequence([0, 0]))
    state = EngmPhdState(_initial_cloud(config, rng))
    for k in range(1, config.n_steps + 1):
        scan = generate_scan(truth[k], models, rng_scan)
        predicted = engm_predict(state, models, rng)
        worst["engm"] = max(worst["engm"], ledger_gap(predicted.mass, state.particles.mass))
        corrected = engm_update(predicted, scan, models)
        state = engm_resample(corrected, config.budget, rng)
        worst["resample"] = max(
            worst["resample"],
            abs(state.particles.mass - corrected.mass) / max(corrected.mass, 1e-300))

    print("criterion 3: worst relative ledger gaps over 100 steps: "
          f"gm {worst['gm']:.2e}, smc {worst['smc']:.2e}, engm {worst['engm']:.2e}, "
          f"resampling {worst['resample']:.2e}")
    assert worst["gm"] < 1e-12
    assert worst["smc"] < 1e-12
    assert worst["engm"] < 1e-12
    assert worst["resample"] < 1e-12


# ---------------------------------------------------------------------------
# criterion 4: assignment and metric oracles


def test_criterion_4_ospa_and_assignment_oracles():
    rng = np.random.default_rng(400)
    for size in range(2, 8):
        perms = np.array(list(itertools.permutations(range(size))))
        for _ in range(100):
            cost = rng.uniform(0.0, 10.0, size=(size, size))
            brute = cost[np.arange(size), perms].sum(axis=1).min()
            _, total = assignment_min_cost(cost)
            assert abs(total - brute) < 1e-10

    params = OspaParams(cutoff=100.0, order=2.0)
    x = np.array([[0.0, 0.0, 0.0]])
    assert ospa(x, x, params)[0] == pytest.approx(0.0, abs=1e-9)
    assert ospa(np.zeros((0, 3)), np.array([[5.0, 5.0, 5.0]]), params)[0] == pytest.approx(
        100.0, abs=1e-9)
    assert ospa(x, np.array([[3.0, 4.0, 0.0]]), params)[0] == pytest.approx(5.0, abs=1e-9)
    two = np.array([[0.0, 0.0, 0.0], [1000.0, 1000.0, 1000.0]])
    assert ospa(x, two, params)[0] == pytest.approx(100.0 / np.sqrt(2.0), abs=1e-9)

    checked = 0
    for _ in range(1000):
        sets = [rng.uniform(0.0, 150.0, size=(int(rng.integers(0, 5)), 3)) for _ in range(3)]
        a, b, c = sets
        dab = ospa(a, b, params)[0]
        assert dab == pytest.approx(ospa(b, a, params)[0], abs=1e-12)
        assert ospa(a, a, params)[0] == pytest.approx(0.0, abs=1e-12)
        assert -1e-12 <= dab <= params.cutoff + 1e-12
        assert dab <= ospa(a, c, params)[0] + ospa(c, b, params)[0] + 1e-9
        checked += 1
    print(f"criterion 4: assignment matches brute force for sizes 2-7; "
          f"metric axioms hold on {checked} random triples; worked examples reproduce")


# ---------------------------------------------------------------------------
# criterion 5: bandwidth constant


def test_criterion_5_silverman_constant():
    value = silverman_bandwidth(6, 250)
    print(f"criterion 5: silverman(6, 250) = {value:.10f} (expected 0.28854 +- 1e-4)")
    assert value == pytest.approx(0.28854, abs=1e-4)


# ---------------------------------------------------------------------------
# criteria 6 and 7: the 25-run statistical comparison


@pytest.fixture(scope="module")
def monte_carlo():
    results = {}
    for kind in ("engm", "smc", "gm"):
        config = ScenarioConfig(filter_kind=kind)
        # results do not depend on threads; two workers halve the wait
        summary, records = run_monte_carlo(config, threads=2)
        results[kind] = (summary, records)
    return results


def assert_no_failed_runs(monte_carlo):
    """A failed run is left out of every mean, so a crash must not pass as a number."""
    for kind, (_, records) in monte_carlo.items():
        errors = [f"run {r.run}: {r.error}" for r in records if r.failed]
        assert not errors, f"{kind}: {len(errors)} of {len(records)} runs failed: {errors[:3]}"


def test_criterion_6a_ensemble_has_lowest_mean_error(monte_carlo):
    means = {kind: summary.mean_over(summary.mean_ospa, 10, 100)
             for kind, (summary, _) in monte_carlo.items()}
    failures = {kind: summary.failures for kind, (summary, _) in monte_carlo.items()}
    print(f"criterion 6a: mean error over steps 10-100: engm {means['engm']:.2f}, "
          f"gm {means['gm']:.2f}, smc {means['smc']:.2f} (failed runs {failures})")
    assert_no_failed_runs(monte_carlo)
    assert means["engm"] < means["gm"]
    assert means["engm"] < means["smc"]


def test_criterion_6b_ensemble_cardinality_window(monte_carlo):
    summary, _ = monte_carlo["engm"]
    mean_n = summary.mean_over(summary.mean_n_hat, 20, 90)
    n_true = ScenarioConfig().initial_targets.shape[0]
    measured = ", ".join(
        f"{kind} {s.mean_over(s.mean_n_hat, 20, 90):.3f}"
        for kind, (s, _) in sorted(monte_carlo.items()))
    print(f"criterion 6b: ensemble mean cardinality over steps 20-90 = {mean_n:.2f}, "
          f"required within [1.5, 2.5]")
    assert_no_failed_runs(monte_carlo)
    assert 1.5 <= mean_n <= 2.5, (
        f"engm mean cardinality {mean_n:.3f} over steps 20-90 is outside [1.5, 2.5] "
        f"with {n_true} true targets (mean cardinality over {summary.runs} runs: "
        f"{measured})")


def test_criterion_6c_particle_filter_undercounts(monte_carlo):
    smc_n = monte_carlo["smc"][0].mean_over(monte_carlo["smc"][0].mean_n_hat, 20, 90)
    engm_n = monte_carlo["engm"][0].mean_over(monte_carlo["engm"][0].mean_n_hat, 20, 90)
    print(f"criterion 6c: mean cardinality over steps 20-90: smc {smc_n:.2f} "
          f"< engm {engm_n:.2f} required")
    assert_no_failed_runs(monte_carlo)
    assert smc_n < engm_n


def test_criterion_7_budget_and_efficiency_table(monte_carlo):
    rows = []
    for kind, (summary, records) in monte_carlo.items():
        mean_components = float(np.nanmean(summary.mean_n_components))
        rows.append(f"  {kind:5s} mean components {mean_components:8.2f}   "
                    f"total seconds {summary.total_wall_time:8.1f}")
        if kind in ("engm", "smc"):
            for record in records:
                for step in record.steps:
                    assert step.n_components == 250
    print("criterion 7: efficiency table (informational):\n" + "\n".join(rows))


# ---------------------------------------------------------------------------
# criterion 8: repeated runs with one seed are byte-identical


def mask_timing(text: str) -> str:
    """Blank the trailing wall-clock field of every data row."""
    lines = text.splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        fields = line.split(",")
        fields[-1] = ""
        out.append(",".join(fields))
    return "\n".join(out)


def test_criterion_8_deterministic_outputs(tmp_path):
    from phdtrack.cli import FileConfig, emit_config_text, main

    config = tmp_path / "scenario.ini"
    cfg = FileConfig()
    cfg.runs = 2
    config.write_text(emit_config_text(cfg), encoding="utf-8")
    outs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        code = main(["run", "--filter", "engm", "--seed", "7", "--config", str(config),
                     "--out-dir", str(out_dir), "--threads", "1"])
        assert code == 0
        outs.append(out_dir)
    identical = []
    for filename in ("states_engm.csv", "meta.json"):
        a = (outs[0] / filename).read_bytes()
        b = (outs[1] / filename).read_bytes()
        assert a == b, f"{filename} differs between identically seeded runs"
        identical.append(filename)
    for filename in ("records_engm.csv", "summary.csv", "efficiency.csv"):
        a = (outs[0] / filename).read_text(encoding="utf-8")
        b = (outs[1] / filename).read_text(encoding="utf-8")
        assert mask_timing(a) == mask_timing(b), (
            f"{filename} differs between identically seeded runs beyond timing")
        identical.append(filename + " (timing column masked)")
    print("criterion 8: byte-identical outputs for repeated --seed 7 runs: "
          + ", ".join(identical))
    meta = json.loads((outs[0] / "meta.json").read_text(encoding="utf-8"))
    assert meta["seed"] == 7
