"""Paired benchmark of the three PHD recursions on identical scans.

Run from the repository root:

    python3 benchmark/run.py --workload reference --seed 0 --seconds 50 --trace 0

For each scenario seed that the benchmark seed stands for, gm, smc and
engm each run once through the public library path (ScenarioConfig ->
run_filter) in this one process.  With --trace 0 the run prints the
end-to-end metrics; with --trace 1 it runs the first scenario seed once
untraced and once with every layer wrapped, prints the per-layer metrics
and writes the spans to .bench_out/.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is 1 when an output check fails and 0 otherwise.

The library is imported from ./src of the checkout this file sits in, so
a directory without the sources fails at once.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import layers
import spec
from tracing import Tracer, patched, resolve, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


def import_library():
    """Import phdtrack from this checkout's src, never from anywhere else."""
    if not (SRC / "phdtrack" / "__init__.py").is_file():
        raise SystemExit(f"error: no phdtrack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import phdtrack

    if Path(phdtrack.__file__).resolve().parent != (SRC / "phdtrack").resolve():
        raise SystemExit(f"error: phdtrack imported from {phdtrack.__file__}, not {SRC}")


def environment(args) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "scenario_seeds": spec.scenario_seeds(args.workload, args.seed),
        "steps": args.steps,
        "trace": args.trace,
    }


class ScanTap:
    """Digest of every scan generate_scan hands to the filter in one run."""

    def __init__(self):
        self._hash = None
        found = resolve("phdtrack.scenario", "generate_scan")
        self.replacements = []
        if found is not None:
            owner, attr = found
            self.replacements.append((owner, attr, self._wrap(getattr(owner, attr))))

    @property
    def present(self) -> bool:
        return bool(self.replacements)

    def _wrap(self, generate_scan):
        def tapped(*args, **kwargs):
            scan = generate_scan(*args, **kwargs)
            if self._hash is not None:
                values = np.ascontiguousarray(scan.values)
                self._hash.update(repr(values.shape).encode())
                self._hash.update(values.tobytes())
            return scan
        return tapped

    def start(self):
        self._hash = hashlib.sha256()

    def finish(self) -> str:
        digest, self._hash = self._hash.hexdigest(), None
        return digest


@dataclass
class Outcome:
    """One filter run: wall time, per-step records reduced to what is compared."""

    seconds: float
    step_s: np.ndarray | None
    series: tuple | None        # per step: n_hat, ospa, ospa_loc, ospa_card, n_components
    digest: str
    error: str | None


def run_once(config, tap: ScanTap) -> Outcome:
    from phdtrack.scenario import FilterNumericalError, run_filter

    tap.start()
    started = time.perf_counter()
    try:
        records = run_filter(config)
    except FilterNumericalError as exc:
        return Outcome(time.perf_counter() - started, None, None, tap.finish(), str(exc))
    seconds = time.perf_counter() - started
    return Outcome(
        seconds,
        np.array([r.wall_time for r in records]),
        tuple((r.n_hat, r.ospa_total, r.ospa_loc, r.ospa_card, r.n_components) for r in records),
        tap.finish(),
        None,
    )


SETUP_CODE = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import phdtrack
from phdtrack.scenario import simulate_truth
import spec
for seed in spec.scenario_seeds({workload!r}, {seed}):
    configs = [spec.scenario_config({workload!r}, f, seed, {steps}) for f in spec.FILTERS]
    simulate_truth(configs[0])
"""


class SetupTimer:
    """Seconds from a fresh interpreter to the workload's configs and truth.

    The host's speed drifts over seconds, so the samples are taken at even
    intervals through the run rather than back to back: `due` takes every
    sample whose time has come, and `finish` takes the ones still owed.
    """

    def __init__(self, args, start: float):
        self.code = SETUP_CODE.format(src=str(SRC), bench=str(ROOT / "benchmark"),
                                      workload=args.workload, seed=args.seed, steps=args.steps)
        interval = args.seconds / spec.SETUP_SAMPLES
        self.times = [start + k * interval for k in range(spec.SETUP_SAMPLES)]
        self.samples = []

    def _sample(self):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-c", self.code], cwd=ROOT, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, timeout=120)
        self.samples.append(time.perf_counter() - started)

    def due(self):
        while len(self.samples) < len(self.times) and \
                time.perf_counter() >= self.times[len(self.samples)]:
            self._sample()

    def finish(self) -> list[float]:
        while len(self.samples) < len(self.times):
            self._sample()
        return self.samples


def ospa_window(steps: int) -> slice:
    lo, hi = spec.OSPA_WINDOW
    if steps < lo:
        lo = 1
    return slice(lo - 1, min(hi, steps))


def check_outcomes(outcomes, seeds, tap, cutoff, problems):
    """Paired scans, bit-exact repeats and OSPA range over every run made."""
    for seed in seeds:
        digests = {o.digest for f in spec.FILTERS for o in outcomes[(seed, f)]}
        if tap.present and len(digests) != 1:
            problems.append(f"scenario seed {seed}: filters did not see identical scans")
    for (seed, f), runs in outcomes.items():
        first = runs[0]
        for again in runs[1:]:
            if (again.series, again.error) != (first.series, first.error):
                problems.append(f"{f} scenario seed {seed}: a repeated run differs from the first")
        for o in runs:
            if o.series is not None and not all(0.0 <= s[1] <= cutoff for s in o.series):
                problems.append(f"{f} scenario seed {seed}: OSPA outside [0, {cutoff}]")


def run_plan(seeds, configs, tap, deadline, setup, problems):
    """Every pair once, then the first seed's first steps again, then repeats while they fit.

    The short repeat must reproduce the start of the full run bit for bit:
    run_filter consumes its scan and filter streams step by step, so a run
    of the first REPEAT_STEPS steps is a prefix of the full run.
    """
    outcomes = defaultdict(list)
    pairs = [(s, f) for s in seeds for f in spec.FILTERS]

    def run(key):
        setup.due()
        outcome = run_once(configs[key], tap)
        outcomes[key].append(outcome)
        # the host's speed drifts over seconds, so a much cheaper pair is
        # sampled again after each long run rather than only in one burst
        for other in pairs:
            if outcomes[other] and outcomes[other][0].seconds < spec.CHEAP_SHARE * outcome.seconds:
                outcomes[other].append(run_once(configs[other], tap))

    for key in pairs:
        run(key)
    repeats = []
    for seed, f in pairs[:len(spec.FILTERS)]:
        full = outcomes[(seed, f)][0]
        if full.error is not None:
            continue
        steps = min(spec.REPEAT_STEPS, len(full.series))
        again = run_once(replace(configs[(seed, f)], t_end=float(steps)), tap)
        repeats.append(again)
        if again.series != full.series[:steps]:
            problems.append(f"{f} scenario seed {seed}: a repeated run differs from the first")
    ran = True
    while ran:
        ran = False
        for key in pairs:
            if time.perf_counter() + outcomes[key][-1].seconds <= deadline:
                run(key)
                ran = True
    return outcomes, repeats


def end_to_end(args, seeds, outcomes, setup_samples, problems) -> dict:
    metrics = {"setup_s": statistics.median(setup_samples)}
    window = ospa_window(args.steps)
    for f in spec.FILTERS:
        good = [[o for o in outcomes[(s, f)] if o.error is None] for s in seeds]
        good = [runs for runs in good if runs]
        if not good:
            problems.append(f"{f}: every run failed")
            continue
        # repeats of one seed are averaged, not their median taken: the host
        # switches between two speeds, and a median jumps from one to the other
        run_s = statistics.median(statistics.fmean(o.seconds for o in runs) for runs in good)
        # each (seed, step) once: its mean over repeats
        step_ms = 1e3 * np.concatenate(
            [np.mean(np.stack([o.step_s for o in runs]), axis=0) for runs in good])
        p50, p90 = np.percentile(step_ms, [50, 90])
        ospa = np.mean([[s[1] for s in runs[0].series[window]] for runs in good])
        metrics[f"{f}.run_s"] = run_s
        metrics[f"{f}.step_ms.p50"] = float(p50)
        metrics[f"{f}.step_ms.p90"] = float(p90)
        metrics[f"{f}.ospa"] = float(ospa)
        print(f"samples {f}: {len(good)} seeds, runs per seed "
              f"{[len(r) for r in good]}, {step_ms.size} step latencies")
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def untraced(args, tap, problems):
    start = time.perf_counter()
    setup = SetupTimer(args, start)
    seeds = spec.scenario_seeds(args.workload, args.seed)
    configs = {(s, f): spec.scenario_config(args.workload, f, s, args.steps)
               for s in seeds for f in spec.FILTERS}
    outcomes, repeats = run_plan(seeds, configs, tap, start + args.seconds, setup, problems)
    setup_samples = setup.finish()
    print(f"setup samples (s): {[round(s, 4) for s in setup_samples]}")
    cutoff = configs[(seeds[0], spec.FILTERS[0])].ospa.cutoff
    check_outcomes(outcomes, seeds, tap, cutoff, problems)
    runs = [o for rs in outcomes.values() for o in rs] + repeats
    metrics = end_to_end(args, seeds, outcomes, setup_samples, problems)
    return metrics, len(runs), sum(o.error is not None for o in runs)


def traced(args, tap, env, problems):
    seed = spec.scenario_seeds(args.workload, args.seed)[0]
    tracer = Tracer()
    replacements, absent = layers.instrument(tracer)
    for label in absent:
        print(f"absent: {label} (not wrapped; its metrics read 0)")
    outcomes = {}
    for f in spec.FILTERS:
        config = spec.scenario_config(args.workload, f, seed, args.steps)
        plain = run_once(config, tap)
        with patched(replacements), tracer.run_span(f"{f}/{seed}"):
            outcomes[(seed, f)] = [plain, run_once(config, tap)]
    # the traced run is a repeat: its series must equal the untraced one's
    check_outcomes(outcomes, [seed], tap, config.ospa.cutoff, problems)
    own = self_times(tracer.spans)
    metrics = {}
    for f in spec.FILTERS:
        plain, run = outcomes[(seed, f)]
        trace = layers.summarize_run(tracer, f"{f}/{seed}", own)
        metrics.update(layers.layer_metrics(f, trace, args.steps))
        overhead = run.seconds - plain.seconds
        print(f"tracing overhead {f}: {overhead:+.4f} s "
              f"({100 * overhead / plain.seconds:+.1f}% of {plain.seconds:.4f} s untraced)")
        if run.step_s is not None:
            wall_ms = 1e3 * run.step_s.sum()
            gap = wall_ms - trace.top_level_ms
            print(f"unaccounted {f}: {gap / args.steps:.4f} ms/step "
                  f"({100 * gap / wall_ms:.2f}% of StepRecord.wall_time)")
        for label in sorted(trace.calls):
            print(f"calls {f}.{label}: {trace.calls[label]} "
                  f"errors {trace.errors.get(label, 0)}")
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(span_file, {"env": env, "absent": absent})
    print(f"spans: {len(tracer.spans)} written to {span_file.relative_to(ROOT)}")
    runs = [o for rs in outcomes.values() for o in rs]
    return metrics, len(runs), sum(o.error is not None for o in runs)


def emit_spec() -> int:
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
    return 0


def nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=nonnegative, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="measuring time of an untraced run; the fixed work always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steps", type=int, default=100,
                        help="steps per filter run; the tests use a handful")
    parser.add_argument("--emit-spec", action="store_true",
                        help="write BENCHMARK.json from the tables in spec.py and exit")
    args = parser.parse_args(argv)
    if args.emit_spec:
        return emit_spec()
    if args.workload is None:
        parser.error("--workload is required")
    if args.steps < 1:
        parser.error("--steps must be >= 1")
    import_library()
    env = environment(args)
    print("env: " + json.dumps(env))
    problems = []
    tap = ScanTap()
    if not tap.present:
        print("absent: phdtrack.scenario.generate_scan (scan pairing not checked)")
    with patched(tap.replacements):
        if args.trace:
            values, attempted, failed = traced(args, tap, env, problems)
        else:
            values, attempted, failed = untraced(args, tap, problems)
    metrics = {m.name: {"value": values.get(m.name), "unit": m.unit}
               for m in (spec.PER_LAYER if args.trace else spec.END_TO_END)}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
