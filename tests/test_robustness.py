"""End-to-end robustness: random valid models, every filter, ten steps.

No reachable state may crash a recursion or leave a non-finite output,
and every step keeps criterion 3's mass ledgers: prediction carries
p_survive times the mass plus the birth mass, correction keeps the
missed-detection share and adds at most one unit per measurement, and
mixture management and resampling leave the mass as it is.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phdtrack.scenario as scenario
from phdtrack.models import BirthModel, ClutterModel, DetectionSurvival, Models
from phdtrack.phd_gm import GmPhdConfig
from phdtrack.scenario import FILTER_KINDS, ScenarioConfig, run_filter

# the reference pair, a target that starts at the radar's origin (no scan
# can measure a target there, and the first scan is at step 1), and two
# on its z-axis, where azimuth is undefined
TARGETS = {
    "reference": ScenarioConfig().initial_targets,
    "origin": np.array([[0.0, 0.0, 0.0, 1.0, 0.0, 0.5]]),
    "z_axis": np.array([[0.0, 0.0, 120.0, 0.0, 0.0, 1.0], [0.0, 0.0, 40.0, 0.0, 0.0, 0.0]]),
}
STAGES = {
    "predict": ("gm_predict", "smc_predict", "engm_predict"),
    "update": ("gm_update", "smc_update", "engm_update"),
    "keep": ("prune_merge_cap", "smc_resample", "engm_resample"),
}
DEFAULT_BIRTH_COV = BirthModel().cov
# the ends of [0, 1] and the reference values, besides any value between
PROBABILITY = st.one_of(st.sampled_from([0.0, 0.98, 0.99, 1.0]), st.floats(0.0, 1.0))


def _mass(intensity):
    # engm's state carries its mass in its particles
    return getattr(intensity, "particles", intensity).mass


def _record_stages(monkeypatch, ledger):
    for stage, names in STAGES.items():
        for name in names:
            def recorded(intensity, *rest, _real=getattr(scenario, name), _stage=stage):
                out = _real(intensity, *rest)
                ledger.append((_stage, _mass(intensity), _mass(out), rest))
                return out

            monkeypatch.setattr(scenario, name, recorded)


def _check_ledger(ledger, models):
    p_s, p_d = models.detection.p_survive, models.detection.p_detect
    for stage, before, after, rest in ledger:
        if stage == "predict":
            assert after == pytest.approx(p_s * before + models.birth.mass_per_step,
                                          rel=1e-12, abs=1e-300)
        elif stage == "update":
            kept, measurements = (1.0 - p_d) * before, len(rest[0])
            assert kept * (1.0 - 1e-12) <= after <= (kept + measurements) * (1.0 + 1e-12)
        else:
            assert after == pytest.approx(before, rel=1e-12, abs=1e-300)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(p_detect=PROBABILITY, p_survive=PROBABILITY,
       clutter_rate=st.floats(0.0, 60.0), birth_count=st.integers(0, 40),
       log_birth_weight=st.floats(-6.0, np.log10(0.5)), log_cov_scale=st.floats(-3.0, 3.0),
       budget=st.integers(1, 40), prune=st.sampled_from([0.0, 1e-5, 1e-2]),
       merge=st.sampled_from([0.0, 4.0, 50.0]), targets=st.sampled_from(sorted(TARGETS)),
       seed=st.integers(0, 2**16))
def test_filters_stay_finite_and_keep_their_mass_ledgers(
        p_detect, p_survive, clutter_rate, birth_count, log_birth_weight, log_cov_scale,
        budget, prune, merge, targets, seed):
    models = Models(
        birth=BirthModel(count_per_step=birth_count, weight_each=10.0 ** log_birth_weight,
                         cov=DEFAULT_BIRTH_COV * 10.0 ** log_cov_scale),
        clutter=ClutterModel(rate=clutter_rate),
        detection=DetectionSurvival(p_detect=p_detect, p_survive=p_survive),
    )
    for kind in FILTER_KINDS:
        config = ScenarioConfig(initial_targets=TARGETS[targets], t_end=10.0, models=models,
                                filter_kind=kind, gm=GmPhdConfig(prune, merge), budget=budget,
                                seed=seed, runs=1)
        ledger = []
        with pytest.MonkeyPatch.context() as monkeypatch:
            _record_stages(monkeypatch, ledger)
            records = run_filter(config)
        assert len(records) == 10
        for r in records:
            assert r.n_hat >= 0
            assert np.isfinite([r.ospa_total, r.ospa_loc, r.ospa_card]).all()
            assert np.isfinite(r.extracted).all()
        assert [stage for stage, *_ in ledger] == ["predict", "update", "keep"] * 10
        _check_ledger(ledger, models)
