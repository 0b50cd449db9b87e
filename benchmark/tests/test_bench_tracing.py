"""Span bookkeeping and self-time arithmetic on synthetic spans."""

import itertools
import json

import pytest

import layers
from tracing import Span, Tracer, covered_length, patched, resolve, self_times


def fake_clock(start=0.0, tick=1.0):
    counter = itertools.count()
    return lambda: start + tick * next(counter)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == 4.0
    assert covered_length([(8.0, 12.0), (-2.0, 1.0)], 0.0, 10.0) == 3.0
    assert covered_length([(1.0, 4.0), (2.0, 3.0)], 0.0, 10.0) == 3.0


def test_self_time_subtracts_only_direct_children():
    spans = [
        Span(0, "run", 0.0, 10.0, None, "r", 0),
        Span(1, "a", 1.0, 4.0, 0, "r", 1),
        Span(2, "a.inner", 2.0, 3.5, 1, "r", 1),
        Span(3, "b", 5.0, 9.0, 0, "r", 1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[1] == pytest.approx(3.0 - 1.5)
    assert own[2] == pytest.approx(1.5)
    assert own[3] == pytest.approx(4.0)
    assert sum(own.values()) == pytest.approx(spans[0].duration)


def test_tracer_records_parents_steps_counts_and_errors():
    tracer = Tracer(clock=fake_clock())

    def leaf(x):
        return x + 1

    def boom():
        raise ValueError("bad")

    traced_leaf = tracer.wrap("leaf", leaf, count=lambda t, args, r: t.count("leaf.n", args[0]))
    step = tracer.wrap("step", lambda: traced_leaf(2), starts_step=True)
    traced_boom = tracer.wrap("boom", boom)
    with tracer.run_span("r1"):
        assert step() == 3
        assert step() == 3
        with pytest.raises(ValueError):
            traced_boom()
    names = [(s.name, s.parent, s.step, s.error) for s in tracer.spans]
    assert names == [
        ("run", None, 0, None),
        ("step", 0, 1, None), ("leaf", 1, 1, None),
        ("step", 0, 2, None), ("leaf", 3, 2, None),
        ("boom", 0, 2, "ValueError"),
    ]
    assert all(s.end > s.start for s in tracer.spans)
    assert tracer.counts == {("r1", "leaf.n"): 4.0}


def test_layer_metrics_are_self_time_and_counts_per_step():
    # every clock reading advances 1 ms
    tracer = Tracer(clock=fake_clock(tick=1e-3))
    mixture = tracer.wrap("gaussmix.GaussianMixture", lambda: None)
    predict = tracer.wrap("phd_gm.gm_predict", mixture)
    scan = tracer.wrap("scenario.generate_scan", lambda: [0.0] * 3, starts_step=True,
                       count=layers._scan_size)
    manage = tracer.wrap("phd_gm.prune_merge_cap", lambda corrected: corrected[:2],
                         count=layers._gm_management)
    with tracer.run_span("gm/0"):
        for _ in range(2):
            scan()
            predict()
            manage([1, 2, 3, 4])
    trace = layers.summarize_run(tracer, "gm/0", self_times(tracer.spans))
    metrics = layers.layer_metrics("gm", trace, steps=2)
    # predict lasts 3 ms per call, 1 ms of it inside the mixture span
    assert metrics["gm.phd_gm.gm_predict.ms"] == pytest.approx(2.0)
    assert metrics["gm.gaussmix.GaussianMixture.ms"] == pytest.approx(1.0)
    assert metrics["gm.phd_gm.prune_merge_cap.ms"] == pytest.approx(1.0)
    assert metrics["gm.scenario.scan_size"] == 3.0
    assert metrics["gm.phd_gm.components_corrected"] == 4.0
    assert metrics["gm.phd_gm.kept_ratio"] == 0.5
    # absent layers read zero
    assert metrics["gm.phd_gm.gm_update.ms"] == 0.0
    # generate_scan is outside the step: only predict and management are top level
    assert trace.top_level_ms == pytest.approx(2 * (3.0 + 1.0))


def test_instrument_reports_absent_targets_and_patched_restores():
    tracer = Tracer()
    targets = (
        layers.Target("json.dumps", "json", "dumps"),
        layers.Target("json.nothing", "json", "no_such_function"),
        layers.Target("nowhere.f", "no_such_module_for_the_bench", "f"),
        layers.Target("json.JSONEncoder.nothing", "json", "JSONEncoder.no_such_method"),
    )
    replacements, absent = layers.instrument(tracer, targets)
    assert absent == ["json.nothing", "nowhere.f", "json.JSONEncoder.nothing"]
    original = json.dumps
    with tracer.run_span("r"), patched(replacements):
        assert json.dumps([1]) == "[1]"
    assert json.dumps is original
    assert [s.name for s in tracer.spans] == ["run", "json.dumps"]


def test_every_target_resolves_in_the_library():
    assert all(resolve(t.module, t.attr) is not None for t in layers.TARGETS)
