"""Workload definitions, input generation, correctness gates and the
workload process.

The benchmark runs each workload in a fresh process (``python3
perfbench/workload.py SPEC.json``) so that its peak RSS is the product's
own.  That process calls the product only through ``balimpute.cli.main``,
with the inputs ``make_inputs`` wrote from the workload seed.

Workloads:

* ``table_mc``: ``simulate`` of the paper's table (2 populations x {MCAR,
  MAR} x {0.5, 0.75}, N = 10,000, n = 100) at one worker, one replicate
  per cell and call.  Thousands of small flight grids (25 x 75 to
  50 x 50); the sampler is under 1% of the time and the pool is bypassed.
* ``census_mc``: ``simulate`` of one cell, N = 1,000,000, n = 100, MAR at
  mean response 0.9 (lambda1 = 0.1), two workers, 24 replicates per call.
  Rejective sampling makes about 25 Bernoulli passes over 1M units per
  draw; flight grids are about 10 x 90; per-cell set-up and pool pickling
  are in the wall time.
* ``big_impute``: ``impute --method ebri`` on one pi-ps rejective sample of
  n = 300 from N = 100,000 with MCAR response of exactly 150 units: one
  grid of 150 x 150 cells with a 27 MB dense balancing matrix, plus the
  CLI's CSV and report I/O.  No sampler, no harness.

Within a run, call i of an MC workload overrides the config seed with
``seed * 1000 + i``; call i of ``big_impute`` imputes the same sample with
``--seed seed * 1000 + i``.
"""

import csv
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

WORKLOADS = ("table_mc", "census_mc", "big_impute")
MIN_CALLS = 3
BALANCE_RTOL = 1e-8
ROW_SUM_TOL = 1e-9
GAMMA_SHAPE, GAMMA_SCALE = 2.0, 5.0

# Full-size parameters; ``toy`` shrinks them for the self-check.
SIZES = {
    "table_mc": {
        "full": {"n_units": 10_000, "sample_size": 100, "replications": 1, "workers": 1},
        "toy": {"n_units": 2_000, "sample_size": 20, "replications": 1, "workers": 1},
    },
    "census_mc": {
        "full": {"n_units": 1_000_000, "sample_size": 100, "replications": 24, "workers": 2},
        "toy": {"n_units": 20_000, "sample_size": 20, "replications": 4, "workers": 2},
    },
    "big_impute": {
        "full": {"n_units": 100_000, "sample_size": 300, "response": 0.5},
        "toy": {"n_units": 2_000, "sample_size": 40, "response": 0.5},
    },
}

TABLE_MECHANISMS = [
    {"kind": "mcar", "level": 0.5},
    {"kind": "mcar", "level": 0.75},
    {"kind": "mar", "level": 0.5},
    {"kind": "mar", "level": 0.75},
]


def call_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


# ---------------------------------------------------------------------------
# inputs


def make_inputs(workload: str, seed: int, workdir: str, toy: bool) -> dict:
    """Write the workload's input files into workdir; return the spec fields
    the workload process needs."""
    size = SIZES[workload]["toy" if toy else "full"]
    if workload == "big_impute":
        path = os.path.join(workdir, "sample.csv")
        n_nonresp = write_sample_csv(path, seed, **size)
        return {"sample": path, "n_nonresp": n_nonresp}
    if workload == "table_mc":
        populations = [
            {"n_units": size["n_units"], "beta": [1.0], "target_r2": r2}
            for r2 in (0.36, 0.64)
        ]
        mechanisms = TABLE_MECHANISMS
    else:
        populations = [{"n_units": size["n_units"], "beta": [1.0], "target_r2": 0.36}]
        mechanisms = [{"kind": "mar", "level": 0.9}]
    config = {
        "seed": seed,
        "populations": populations,
        "mechanisms": mechanisms,
        "sample_size": size["sample_size"],
        "replications": size["replications"],
        "design": "pips-rejective",
        "mar_lambda1": 0.1,
        "methods": ["dri", "rri", "ebri"],
        "alphas": [0.25, 0.5],
    }
    path = os.path.join(workdir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    return {"config": path, "replications": size["replications"],
            "workers": size["workers"], "cells": len(populations) * len(mechanisms)}


def write_sample_csv(path, seed, n_units, sample_size, response) -> int:
    """A pi-ps rejective sample with MCAR response, drawn with numpy alone so
    the input does not change when the program does.  Exactly
    ``response * sample_size`` units respond: the flight's cost grows
    steeply with the number of nonrespondents, so a Bernoulli count would
    make one seed's grid far costlier than another's.  Returns the number
    of nonrespondents."""
    rng = np.random.default_rng([seed, 3])
    z1 = np.maximum(rng.gamma(GAMMA_SHAPE, GAMMA_SCALE, n_units), np.finfo(float).tiny)
    var_z, mean_z, r2 = GAMMA_SHAPE * GAMMA_SCALE**2, GAMMA_SHAPE * GAMMA_SCALE, 0.36
    sigma2 = var_z * (1.0 - r2) / (r2 * mean_z)
    y = z1 + np.sqrt(z1) * rng.normal(0.0, math.sqrt(sigma2), n_units)
    pi = sample_size * z1 / z1.sum()
    if pi.max() >= 1.0:
        raise ValueError("a unit would be taken with certainty; use a larger population")
    while True:
        mask = rng.random(n_units) < pi
        if int(mask.sum()) == sample_size:
            break
    idx = np.flatnonzero(mask)
    respond = np.zeros(sample_size, dtype=bool)
    respond[rng.choice(sample_size, round(response * sample_size), replace=False)] = True
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "y", "z1", "v", "pi", "d", "r"])
        for j, k in enumerate(idx):
            p = float(pi[k])
            w.writerow([int(k) + 1, repr(float(y[k])) if respond[j] else "",
                        repr(float(z1[k])), repr(float(z1[k])), repr(p),
                        repr(1.0 / p), int(respond[j])])
    return int((~respond).sum())


def call_argv(spec: dict, i: int, outdir: str, workers=None, replications=None) -> list:
    """argv of call i for ``balimpute.cli.main``; outputs go to outdir."""
    seed = str(call_seed(spec["seed"], i))
    if spec["workload"] == "big_impute":
        return ["impute", "--input", spec["sample"], "--method", "ebri", "--seed", seed,
                "--out", os.path.join(outdir, "imputed.csv"),
                "--report", os.path.join(outdir, "report.json")]
    argv = ["simulate", "--config", spec["config"], "--seed", seed, "--out", outdir,
            "--workers", str(workers or spec["workers"])]
    if replications is not None:
        argv += ["--replications", str(replications)]
    return argv


def output_files(workload: str, outdir: str) -> list:
    """The outputs that must be byte-identical across reruns of a call."""
    names = (("imputed.csv", "report.json") if workload == "big_impute"
             else ("table_total.csv", "table_df.csv"))
    return [os.path.join(outdir, n) for n in names]


# ---------------------------------------------------------------------------
# correctness gates; an empty error list is a pass


def gate_simulate(outdir: str, rc, attempted: int) -> tuple[int, list]:
    """Exit code 0, no aborted replicate in run_meta.json, every table
    entry finite.  Returns (failed replicates, errors): an aborted
    replicate fails alone, any other broken gate fails the whole call."""
    if rc != 0:
        return attempted, [f"simulate exited with {rc!r}"]
    errors = []
    aborted = 0
    try:
        with open(os.path.join(outdir, "run_meta.json"), encoding="utf-8") as fh:
            aborted = sum(int(v) for v in json.load(fh)["aborted"].values())
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        errors.append(f"run_meta.json unreadable: {exc}")
    for name, first_value in (("table_total.csv", 2), ("table_df.csv", 3)):
        try:
            with open(os.path.join(outdir, name), newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[1:]
        except OSError as exc:
            errors.append(f"{name} unreadable: {exc}")
            continue
        if not rows:
            errors.append(f"{name} has no rows")
        for row in rows:
            for cell in row[first_value:]:
                if not _finite(cell):
                    errors.append(f"{name}: non-finite entry {cell!r} in row {row[:first_value]}")
    failed = attempted if errors else aborted
    if aborted:
        errors.append(f"{aborted} aborted replicates")
    return failed, errors


def gate_impute(outdir: str, rc, n_nonresp: int) -> list:
    """Exit code 0, reported balance error <= 1e-8, every donor row sums to
    1 within 1e-9, n_imputed equals the nonrespondent count, and every
    completed y and the imputed total are finite."""
    if rc != 0:
        return [f"impute exited with {rc!r}"]
    csv_path, report_path = output_files("big_impute", outdir)
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        with open(csv_path, newline="", encoding="utf-8") as fh:
            ys = [row["y"] for row in csv.DictReader(fh)]
        rel = float(report["balance_relative_error"])
        donors = report["donors"]
        n_imputed = int(report["n_imputed"])
        total = report["total_imputed"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"impute outputs unreadable: {exc}"]
    errors = []
    if not rel <= BALANCE_RTOL:
        errors.append(f"balance_relative_error {rel!r} > {BALANCE_RTOL}")
    if n_imputed != n_nonresp:
        errors.append(f"n_imputed {n_imputed} != {n_nonresp} nonrespondents")
    if len(donors) != n_nonresp:
        errors.append(f"{len(donors)} donor rows for {n_nonresp} nonrespondents")
    for row in donors:
        s = math.fsum(row["weights"].values())
        if not abs(s - 1.0) <= ROW_SUM_TOL:
            errors.append(f"donor row of unit {row['unit']} sums to {s!r}")
    bad_y = sum(not _finite(y) for y in ys)
    if bad_y:
        errors.append(f"{bad_y} non-finite completed y values")
    if not _finite(total):
        errors.append(f"total_imputed {total!r} is not finite")
    return errors


def compare_outputs(workload: str, dir_a: str, dir_b: str) -> list:
    """Byte-identity of a call's outputs in two directories."""
    errors = []
    for a, b in zip(output_files(workload, dir_a), output_files(workload, dir_b)):
        try:
            with open(a, "rb") as fa, open(b, "rb") as fb:
                same = fa.read() == fb.read()
        except OSError as exc:
            errors.append(f"cannot compare {os.path.basename(a)}: {exc}")
            continue
        if not same:
            errors.append(f"{os.path.basename(a)} differs between {dir_a} and {dir_b}")
    return errors


def _finite(x) -> bool:
    try:
        return math.isfinite(float(x))
    except (TypeError, ValueError):
        return False


# ---------------------------------------------------------------------------
# the workload process


def run_call(spec, i, outdir, workers=None, replications=None, main=None):
    """One product call through balimpute.cli.main, gated.  Returns its
    record: wall seconds, exit code, operations attempted and failed."""
    from balimpute import cli

    main = main or cli.main
    os.makedirs(outdir, exist_ok=True)
    argv = call_argv(spec, i, outdir, workers, replications)
    t0 = time.perf_counter()
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code
    except Exception:  # a crash is a failed call, not a benchmark error
        rc = traceback.format_exc()
    wall = time.perf_counter() - t0
    if spec["workload"] == "big_impute":
        errors = gate_impute(outdir, rc, spec["n_nonresp"])
        attempted, failed = 1, int(bool(errors))
    else:
        attempted = (replications or spec["replications"]) * spec["cells"]
        failed, errors = gate_simulate(outdir, rc, attempted)
    return {"call": i, "wall_s": wall, "rc": rc, "attempted": attempted,
            "failed": failed, "errors": errors}


def run_timed(spec) -> list:
    """Calls 0, 1, ... for spec['seconds']: a call starts only if a call of
    the median length so far still ends in time, and at least MIN_CALLS are
    made."""
    records = []
    t0 = time.perf_counter()
    while len(records) < MIN_CALLS or (
            time.perf_counter() - t0 + statistics.median(r["wall_s"] for r in records)
            <= spec["seconds"]):
        i = len(records)
        records.append(run_call(spec, i, os.path.join(spec["workdir"], f"call-{i}")))
    return records


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS (ru_maxrss
    is in KiB on Linux)."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def workload_process(spec: dict) -> dict:
    if not spec["trace"]:
        calls = run_timed(spec)
        out = {"calls": calls, "peak_rss_mb": peak_rss_mb()}
    else:
        from tracing import traced_run

        out = traced_run(spec)
    if not spec.get("keep_outputs"):
        for name in os.listdir(spec["workdir"]):
            path = os.path.join(spec["workdir"], name)
            if os.path.isdir(path):
                shutil.rmtree(path)
    return out


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = workload_process(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
