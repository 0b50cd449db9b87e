"""Which phdtrack functions the traced run wraps, and what it counts there.

Each target replaces a module attribute that the callers look up at call
time (the names scenario.py imports, the helpers the recursions reach
through their module globals, and the GaussianMixture validation hook),
so the library itself is left untouched.  A target whose attribute no
longer exists is reported as absent and its metrics read zero.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import spec
from tracing import Tracer, resolve

MIB = float(1 << 20)

# Spans of these names run outside StepRecord.wall_time.
OUTSIDE_STEP = ("scenario.generate_scan", "metrics.ospa")


def _scan_size(tracer, args, scan):
    tracer.count("scenario.scan_size", len(scan))


def _gm_management(tracer, args, kept):
    tracer.count("phd_gm.components_corrected", len(args[0]))
    tracer.count("phd_gm.components_kept", len(kept))


def _likelihood_pairs(tracer, args, result):
    predicted, scan = args[0], args[1]
    tracer.count("phd_smc.likelihood_pairs", len(predicted) * len(scan))


def _engm_corrected(tracer, args, result):
    corrected = args[0]
    tracer.count("phd_engm.components_corrected", len(corrected))
    nbytes = corrected.weights.nbytes + corrected.means.nbytes + corrected.covs.nbytes
    tracer.count("phd_engm.corrected_mb", nbytes / MIB)


def _covs_validated(tracer, args, result):
    tracer.count("gaussmix.GaussianMixture.covs", len(args[0].covs))


@dataclass(frozen=True)
class Target:
    label: str
    module: str
    attr: str
    count: Callable | None = None
    starts_step: bool = False


TARGETS = (
    Target("scenario.generate_scan", "phdtrack.scenario", "generate_scan", _scan_size,
           starts_step=True),
    Target("metrics.ospa", "phdtrack.scenario", "ospa"),
    Target("phd_gm.gm_predict", "phdtrack.scenario", "gm_predict"),
    Target("phd_gm.gm_update", "phdtrack.scenario", "gm_update"),
    Target("phd_gm.prune_merge_cap", "phdtrack.scenario", "prune_merge_cap", _gm_management),
    Target("phd_gm.gm_extract", "phdtrack.scenario", "gm_extract"),
    Target("phd_gm.floor_covariances", "phdtrack.phd_gm", "floor_covariances"),
    Target("phd_smc.smc_predict", "phdtrack.scenario", "smc_predict"),
    Target("phd_smc.smc_update", "phdtrack.scenario", "smc_update", _likelihood_pairs),
    Target("phd_smc.smc_resample", "phdtrack.scenario", "smc_resample"),
    Target("phd_smc.cluster_extract", "phdtrack.scenario", "cluster_extract"),
    Target("phd_smc.kmeans_cluster", "phdtrack.phd_smc", "kmeans_cluster"),
    Target("phd_engm.engm_predict", "phdtrack.scenario", "engm_predict"),
    Target("phd_engm.engm_update", "phdtrack.scenario", "engm_update"),
    Target("phd_engm.engm_resample", "phdtrack.scenario", "engm_resample", _engm_corrected),
    Target("phd_engm.engm_extract", "phdtrack.scenario", "engm_extract"),
    Target("gaussmix.kde_from_particles", "phdtrack.phd_engm", "kde_from_particles"),
    Target("gaussmix.sample_mixture", "phdtrack.phd_engm", "sample_mixture"),
    Target("models.propagate_state", "phdtrack.models", "propagate_state"),
    Target("models.sample_psd_noise", "phdtrack.models", "sample_psd_noise"),
    Target("gaussmix.GaussianMixture", "phdtrack.gaussmix", "GaussianMixture.__post_init__",
           _covs_validated),
)


def instrument(tracer: Tracer, targets=TARGETS):
    """(replacements for tracing.patched, labels of absent targets)."""
    replacements, absent = [], []
    for t in targets:
        found = resolve(t.module, t.attr)
        if found is None:
            absent.append(t.label)
            continue
        owner, attr = found
        replacements.append((owner, attr, tracer.wrap(t.label, getattr(owner, attr),
                                                      t.count, t.starts_step)))
    return replacements, absent


@dataclass
class RunTrace:
    """Per-layer view of one traced run."""

    self_ms: dict[str, float]       # label -> summed self time, ms
    calls: dict[str, int]
    errors: dict[str, int]
    counts: dict[str, float]
    top_level_ms: float             # stage spans directly under the run, inside the step


def summarize_run(tracer: Tracer, run: str, own_self_times: dict[int, float]) -> RunTrace:
    self_ms, calls, errors = {}, {}, {}
    root = next(s.id for s in tracer.spans if s.run == run and s.name == "run")
    top_level = 0.0
    for s in tracer.spans:
        if s.run != run or s.id == root:
            continue
        self_ms[s.name] = self_ms.get(s.name, 0.0) + 1e3 * own_self_times[s.id]
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.error is not None:
            errors[s.name] = errors.get(s.name, 0) + 1
        if s.parent == root and s.name not in OUTSIDE_STEP:
            top_level += 1e3 * s.duration
    counts = {name: v for (r, name), v in tracer.counts.items() if r == run}
    return RunTrace(self_ms, calls, errors, counts, top_level)


def layer_metrics(filter_kind: str, trace: RunTrace, steps: int) -> dict[str, float]:
    """The filter's per-layer metrics, each a mean per step."""
    out = {}
    for name, _ in spec.LAYERS[filter_kind]:
        if name.endswith(".ms"):
            value = trace.self_ms.get(name[:-3], 0.0) / steps
        elif name == "phd_gm.kept_ratio":
            corrected = trace.counts.get("phd_gm.components_corrected", 0.0)
            value = trace.counts.get("phd_gm.components_kept", 0.0) / corrected if corrected else 0.0
        else:
            value = trace.counts.get(name, 0.0) / steps
        out[f"{filter_kind}.{name}"] = value
    return out
