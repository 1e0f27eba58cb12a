"""Outside-in tracing for the per-layer metrics.

Spans are recorded by wrapping the product's public functions, by name, on
the module namespaces that call them; nothing inside ``src/`` records a
span.  A span is (name, start, end, parent, attributes), kept in memory and
written out when the run ends.  A span's self time is its duration minus
the time its child spans cover.  Checks that the benchmark itself makes
while tracing (the balance recheck, the sampler replay) run inside spans
named ``bench.*``: they are subtracted from their parents' self time and
from the workload wall time.

The traced run makes these calls:

1. for ``--seconds`` (at least two pairs), a traced call (census_mc at one
   worker, because spans recorded in pool workers would be lost), each
   followed by the same call untraced at the same worker count.  The
   untraced calls are the baseline of the tracing overhead
   (``trace.overhead_s``: traced minus untraced wall time per call, the
   benchmark's own checks excluded), and their outputs must be
   byte-identical to the traced calls';
2. census_mc only: call 0 untraced at the workload's two workers, whose
   tables must equal the one-worker tables;
3. a memory pass: ``tracemalloc`` around ``impute_ebri`` for one call
   (one replicate per cell for the MC workloads).  It slows the flight
   several-fold, so it stays out of the timed calls.
"""

import copy
import functools
import inspect
import json
import os
import statistics
import time
import tracemalloc

import numpy as np

from workload import compare_outputs, run_call

MIN_PAIRS = 2  # traced and untraced calls per run, at least
REPLAY_CHECKS = 8  # sampler draws per run replayed unwrapped
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, attrs]
        self._stack = []

    def span(self, name):
        return _Span(self, name)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        self.attrs = {}
        parent = t._stack[-1] if t._stack else -1
        t.spans.append([self.name, time.perf_counter(), None, parent, self.attrs])
        t._stack.append(self.index)
        return self.attrs

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t._stack.pop()
        return False


class CountingRng:
    """Generator proxy that counts ``.random`` calls (Bernoulli passes of
    the rejective sampler) and delegates everything to the generator."""

    def __init__(self, rng):
        self._rng = rng
        self.passes = 0

    def random(self, *args, **kwargs):
        self.passes += 1
        return self._rng.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def balance_error(model, dataset, d, v) -> float:
    """Relative error of the ebri balance identity: target sum d sqrt(v)
    ebar_r over nonrespondents, achieved sum d sqrt(v) eps* (the formula of
    the CLI's balance report)."""
    nonresp = ~dataset.respond
    d = np.asarray(d, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    dv = d[nonresp] * np.sqrt(v[nonresp])
    target = float(dv.sum() * model.ebar_r)
    achieved = float(dv @ dataset.eps_star[nonresp])
    return abs(achieved - target) / max(1.0, abs(target))


def install(tracer: Tracer, errors: list, replays: list):
    """Wrap the product's functions; returns a function that restores them.
    Gate failures go to errors; replays[0] counts the sampler replays."""
    from balimpute import cli, harness, imputation

    originals = []

    def patch(module, attr, wrapper):
        originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    plain = {
        harness: {
            "generate_population": "population.generate_population",
            "pips_probabilities": "sampling.pips_probabilities",
            "calibrate_mar": "imputation.calibrate_mar",
            "generate_response": "imputation.generate_response",
            "fit_model": "regression.fit_model",
            "impute_dri": "imputation.impute_dri",
            "impute_rri": "imputation.impute_rri",
            "imputed_total": "estimators.imputed_total",
            "imputed_fhat": "estimators.imputed_fhat",
        },
        imputation: {"build_cells": "imputation.build_cells"},
        cli: {
            "sample_from_csv": "cli.sample_from_csv",
            "fit_model": "regression.fit_model",
            "imputed_total": "estimators.imputed_total",
            "run_experiment": "harness.run_experiment",
            "write_tables": "harness.write_tables",
            "cmd_impute": "cli.impute",
            "cmd_simulate": "cli.simulate",
        },
    }
    for module, names in plain.items():
        for attr, span_name in names.items():
            patch(module, attr, tracer.wrap(span_name, getattr(module, attr)))

    sample_fn = harness.rejective_sample
    sample_sig = inspect.signature(sample_fn)

    @functools.wraps(sample_fn)
    def rejective_sample(*args, **kwargs):
        bound = sample_sig.bind(*args, **kwargs)
        rng = bound.arguments["rng"]
        state = copy.deepcopy(rng.bit_generator.state)
        proxy = CountingRng(rng)
        bound.arguments["rng"] = proxy
        with tracer.span("sampling.rejective_sample") as attrs:
            out = sample_fn(*bound.args, **bound.kwargs)
        attrs["passes"] = proxy.passes
        if replays[0] < REPLAY_CHECKS:
            replays[0] += 1
            with tracer.span("bench.replay"):
                fresh = np.random.Generator(type(rng.bit_generator)())
                fresh.bit_generator.state = state
                bound.arguments["rng"] = fresh
                ref = sample_fn(*bound.args, **bound.kwargs)
                if not np.array_equal(ref.indices, out.indices):
                    errors.append("rejective_sample through the counting proxy "
                                  "drew other units than the unwrapped draw")
        return out

    patch(harness, "rejective_sample", rejective_sample)

    flight_fn = imputation.flight_phase

    @functools.wraps(flight_fn)
    def flight_phase(problem, *args, **kwargs):
        with tracer.span("cube.flight_phase") as attrs:
            out = flight_fn(problem, *args, **kwargs)
        attrs["steps"] = int(out.steps)
        attrs["cells"] = int(problem.n_cells)
        return out

    patch(imputation, "flight_phase", flight_phase)

    ebri_fn = harness.impute_ebri
    ebri_sig = inspect.signature(ebri_fn)

    @functools.wraps(ebri_fn)
    def impute_ebri(*args, **kwargs):
        with tracer.span("imputation.impute_ebri") as attrs:
            out = ebri_fn(*args, **kwargs)
        with tracer.span("bench.balance_check"):
            a = ebri_sig.bind(*args, **kwargs).arguments
            rel = balance_error(a["model"], out, a["d"], a["v"])
            attrs["balance_err"] = rel
            attrs["split_rows"] = 0 if out.pure is None else int((~out.pure).sum())
            if not rel <= 1e-8:
                errors.append(f"impute_ebri balance identity off by {rel!r}")
        return out

    patch(harness, "impute_ebri", impute_ebri)
    patch(cli, "impute_ebri", impute_ebri)

    def restore():
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)

    return restore


def memory_pass(spec) -> tuple[float, dict]:
    """Peak tracemalloc MB inside impute_ebri over one call, and the
    call's record."""
    from balimpute import cli, harness

    ebri_fn = harness.impute_ebri
    peaks = []

    @functools.wraps(ebri_fn)
    def impute_ebri(*args, **kwargs):
        tracemalloc.start()
        try:
            return ebri_fn(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
            tracemalloc.stop()

    harness.impute_ebri = cli.impute_ebri = impute_ebri
    try:
        outdir = os.path.join(spec["workdir"], "memory")
        if spec["workload"] == "big_impute":
            rec = run_call(spec, 0, outdir)
        else:
            rec = run_call(spec, 0, outdir, workers=1, replications=1)
    finally:
        harness.impute_ebri = cli.impute_ebri = ebri_fn
    return max(peaks) if peaks else 0.0, rec


def traced_run(spec) -> dict:
    from balimpute import cli

    tracer = Tracer()
    errors = []
    replays = [0]
    workdir = spec["workdir"]
    workers = 1 if spec["workload"] != "big_impute" else None

    def traced_main(argv):
        with tracer.span("cli.main"):
            return cli.main(argv)

    # Traced and untraced calls alternate, so drift in machine speed hits
    # both sides of the overhead alike.
    traced, untraced = [], []
    t0 = time.perf_counter()
    while len(traced) < MIN_PAIRS or (
            time.perf_counter() - t0 + statistics.median(
                a["wall_s"] + b["wall_s"] for a, b in zip(traced, untraced))
            <= spec["seconds"]):
        i = len(traced)
        restore = install(tracer, errors, replays)
        try:
            traced.append(run_call(spec, i, os.path.join(workdir, f"traced-{i}"),
                                   workers=workers, main=traced_main))
        finally:
            restore()
        untraced.append(run_call(spec, i, os.path.join(workdir, f"untraced-{i}"),
                                 workers=workers))
        errors += compare_outputs(spec["workload"], os.path.join(workdir, f"traced-{i}"),
                                  os.path.join(workdir, f"untraced-{i}"))
    records = traced + untraced
    if spec["workload"] == "census_mc":
        records.append(run_call(spec, 0, os.path.join(workdir, "pooled-0")))
        errors += compare_outputs(spec["workload"], os.path.join(workdir, "traced-0"),
                                  os.path.join(workdir, "pooled-0"))
    peak_mb, mem_rec = memory_pass(spec)
    records.append(mem_rec)

    aborted = 0
    for i in range(len(traced)):
        meta = os.path.join(workdir, f"traced-{i}", "run_meta.json")
        if os.path.exists(meta):  # a simulate call that wrote no meta has failed its gate
            with open(meta, encoding="utf-8") as fh:
                aborted += sum(json.load(fh)["aborted"].values())
    bench_s = sum(e - s for n, s, e, _, _ in tracer.spans if n.startswith("bench."))
    overhead = (sum(r["wall_s"] for r in traced) - bench_s
                - sum(r["wall_s"] for r in untraced)) / len(traced)
    metrics = layer_metrics(tracer.spans)
    metrics["imputation.impute_ebri.peak_mb"] = (peak_mb, "MB")
    metrics["harness.aborted"] = (aborted, "count")
    metrics["trace.overhead_s"] = (overhead, "s")
    spans_path = os.path.join(spec["results_dir"], spec["tag"] + "-spans.jsonl")
    with open(spans_path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, attrs in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, **attrs}) + "\n")
    return {"calls": records, "trace_errors": errors, "spans": spans_path,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _durations(spans):
    """name -> (durations, self durations, attrs list), and the workload
    wall time: root spans minus the benchmark's own check spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name = {}
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        entry = by_name.setdefault(name, ([], [], []))
        entry[0].append(end - start)
        entry[1].append(end - start - child_time[i])
        entry[2].append(attrs)
    wall = sum(e - s for n, s, e, p, _ in spans if p < 0)
    wall -= sum(e - s for n, s, e, p, _ in spans if n.startswith("bench."))
    return by_name, wall


def tail(values):
    """(value, percentile, samples): the highest percentile that has at
    least ten samples beyond it; the median when there are too few."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return float(np.percentile(values, p)), p, n
    return (float(np.percentile(values, 50.0)) if n else 0.0), 50.0, n


def layer_metrics(spans) -> dict:
    """Every per-layer metric but the memory pass's, the abort count and
    the tracing overhead, as name -> (value, unit).  A function the workload
    never calls reads 0."""
    by_name, wall = _durations(spans)
    empty = ([], [], [])

    def med(values, scale):
        return statistics.median(values) * scale if values else 0.0

    def ms_p50(name):
        return med(by_name.get(name, empty)[0], 1e3)

    m = {}
    flight_d, _, flight_a = by_name.get("cube.flight_phase", empty)
    t, p, n = tail([d * 1e3 for d in flight_d])
    steps = [a["steps"] for a in flight_a]
    m["cube.flight_phase.ms_p50"] = (ms_p50("cube.flight_phase"), "ms")
    m["cube.flight_phase.ms_tail"] = (t, "ms")
    m["cube.flight_phase.ms_tail_pct"] = (p, "%")
    m["cube.flight_phase.calls"] = (n, "count")
    m["cube.flight_phase.share"] = (sum(flight_d) / wall if wall else 0.0, "ratio")
    m["cube.flight_phase.steps_per_s"] = (sum(steps) / sum(flight_d) if flight_d else 0.0, "1/s")
    m["cube.flight_phase.steps"] = (med(steps, 1), "count")
    m["cube.flight_phase.cells_p50"] = (med([a["cells"] for a in flight_a], 1), "count")

    ebri_d, ebri_self, ebri_a = by_name.get("imputation.impute_ebri", empty)
    m["cube.flight_phase.split_rows_max"] = (max((a["split_rows"] for a in ebri_a), default=0), "count")
    m["imputation.build_cells.ms_p50"] = (ms_p50("imputation.build_cells"), "ms")
    m["imputation.impute_ebri.self_ms_p50"] = (med(ebri_self, 1e3), "ms")
    m["imputation.impute_ebri.balance_err_max"] = (max((a["balance_err"] for a in ebri_a), default=0.0), "ratio")

    # self times: the first draws of a run hold a bench.replay child span
    _, samp_d, samp_a = by_name.get("sampling.rejective_sample", empty)
    t, p, n = tail([d * 1e3 for d in samp_d])
    passes = sum(a["passes"] for a in samp_a)
    m["sampling.rejective_sample.ms_p50"] = (med(samp_d, 1e3), "ms")
    m["sampling.rejective_sample.ms_tail"] = (t, "ms")
    m["sampling.rejective_sample.ms_tail_pct"] = (p, "%")
    m["sampling.rejective_sample.calls"] = (n, "count")
    m["sampling.rejective_sample.share"] = (sum(samp_d) / wall if wall else 0.0, "ratio")
    m["sampling.rejective_sample.accept_ratio"] = (len(samp_d) / passes if passes else 0.0, "ratio")

    for name in ("population.generate_population", "sampling.pips_probabilities",
                 "imputation.calibrate_mar", "cli.sample_from_csv"):
        m[name + ".ms"] = (ms_p50(name), "ms")
    m["harness.run_experiment.self_s"] = (med(by_name.get("harness.run_experiment", empty)[1], 1), "s")
    for name in ("regression.fit_model", "imputation.generate_response",
                 "imputation.impute_dri", "imputation.impute_rri",
                 "estimators.imputed_total", "estimators.imputed_fhat"):
        m[name + ".ms_p50"] = (ms_p50(name), "ms")
    m["cli.impute.self_ms"] = (med(by_name.get("cli.impute", empty)[1], 1e3), "ms")
    return m
