"""Self-check of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It runs every workload at toy size, untraced and traced, and checks that
each run passes its gates and emits every metric ``BENCHMARK.json`` names,
with that metric's unit.  Then it feeds every correctness gate a
deliberately corrupted copy of an output (a report, a table, a run_meta.json,
an imputed dataset, a sampler draw) and checks that the gate trips.  The
program is never changed.  Exit code 0 when every check passes.
"""

import csv
import dataclasses
import json
import os
import shutil
import sys

import numpy as np

from run import run
from tracing import CountingRng, Tracer, balance_error, install
from workload import WORKLOADS, compare_outputs, gate_impute, gate_simulate

SEED = 5
ENV_KEYS = {"python", "numpy", "numba_imports", "BALIMPUTE_NUMBA", "BALIMPUTE_WORKERS",
            "cpu_count", "seed"}


class Checks:
    def __init__(self):
        self.failures = []

    def expect(self, ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            self.failures.append(what)

    def trips(self, errors, what):
        self.expect(bool(errors), f"gate trips: {what}")


def copy_dir(src, dst):
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    return dst


def edit_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def edit_csv_cell(path, row, col, value):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = value
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def check_metrics(c, record, declared, label):
    metrics = record["result"]["metrics"]
    c.expect(record["result"]["correct"] and record["result"]["failed"] == 0,
             f"{label}: gates pass ({record['errors'] or 'no errors'})")
    c.expect(set(metrics) == set(declared),
             f"{label}: emits exactly the declared metrics "
             f"(missing {sorted(set(declared) - set(metrics))}, "
             f"extra {sorted(set(metrics) - set(declared))})")
    for name, unit in declared.items():
        m = metrics.get(name, {})
        c.expect(m.get("unit") == unit and isinstance(m.get("value"), (int, float)),
                 f"{label}: {name} is a number in {unit}")


def check_simulate_gates(c, outdir, attempted, scratch):
    c.expect(gate_simulate(outdir, 0, attempted) == (0, []), "simulate gates pass on the real output")
    c.trips(gate_simulate(outdir, 1, attempted)[1], "simulate exit code 1")

    bad = copy_dir(outdir, os.path.join(scratch, "aborted"))
    edit_json(os.path.join(bad, "run_meta.json"),
              lambda meta: meta["aborted"].update({next(iter(meta["aborted"])): 1}))
    failed, errors = gate_simulate(bad, 0, attempted)
    c.trips(errors, "an aborted replicate in run_meta.json")
    c.expect(failed == 1, "an aborted replicate counts as one failed operation")

    for name, row, col in (("table_total.csv", 1, 2), ("table_df.csv", 1, 3)):
        bad = copy_dir(outdir, os.path.join(scratch, "nan"))
        edit_csv_cell(os.path.join(bad, name), row, col, "nan")
        failed, errors = gate_simulate(bad, 0, attempted)
        c.trips(errors, f"a non-finite entry in {name}")
        c.expect(failed == attempted, f"a broken {name} fails the whole call")

    bad = copy_dir(outdir, os.path.join(scratch, "differs"))
    edit_csv_cell(os.path.join(bad, "table_total.csv"), 1, 2, "0.0")
    c.trips(compare_outputs("table_mc", outdir, bad), "tables that differ between two runs")


def check_impute_gates(c, outdir, n_nonresp, scratch):
    c.expect(gate_impute(outdir, 0, n_nonresp) == [], "impute gates pass on the real output")
    c.trips(gate_impute(outdir, 1, n_nonresp), "impute exit code 1")

    def corrupt(label, edit):
        bad = copy_dir(outdir, os.path.join(scratch, "impute"))
        edit_json(os.path.join(bad, "report.json"), edit)
        c.trips(gate_impute(bad, 0, n_nonresp), label)

    def off_balance(report):
        report["balance_relative_error"] = 1e-6

    def short_row(report):
        weights = report["donors"][0]["weights"]
        key = next(iter(weights))
        weights[key] *= 0.5

    def miscount(report):
        report["n_imputed"] += 1

    corrupt("balance_relative_error above 1e-8", off_balance)
    corrupt("a donor row that does not sum to 1", short_row)
    corrupt("n_imputed other than the nonrespondent count", miscount)

    bad = copy_dir(outdir, os.path.join(scratch, "impute"))
    edit_csv_cell(os.path.join(bad, "imputed.csv"), 1, 1, "nan")
    c.trips(gate_impute(bad, 0, n_nonresp), "a non-finite completed y")
    c.trips(compare_outputs("big_impute", outdir, bad), "imputed files that differ between two runs")


def check_trace_gates(c):
    """The balance recheck and the sampler replay, on their own inputs."""
    from balimpute import harness, load_thompson_example
    from balimpute.imputation import impute_ebri
    from balimpute.regression import fit_model
    from balimpute.sampling import pips_probabilities

    th = load_thompson_example()
    fit = fit_model(th.z1[:, None], th.y, th.z1, th.respond, th.n_population)
    ds = impute_ebri(fit, th.z1[:, None], th.y, th.z1, th.d, np.random.default_rng(1234))
    c.expect(balance_error(fit, ds, th.d, th.z1) <= 1e-8, "balance recheck passes on a real ebri draw")
    eps = ds.eps_star.copy()
    eps[np.flatnonzero(~ds.respond)[0]] += 1e-3
    c.expect(balance_error(fit, dataclasses.replace(ds, eps_star=eps), th.d, th.z1) > 1e-8,
             "gate trips: balance recheck on a corrupted eps*")

    pi = pips_probabilities(np.random.default_rng(2).gamma(2.0, 5.0, 2000), 20)
    real = harness.rejective_sample
    for corrupt in (False, True):
        def sampler(pi, rng, corrupt=corrupt):
            sample = real(pi, rng)
            if corrupt and isinstance(rng, CountingRng):  # the proxied draw only
                sample = dataclasses.replace(sample, indices=sample.indices + 1)
            return sample

        harness.rejective_sample = sampler
        tracer, errors, replays = Tracer(), [], [0]
        restore = install(tracer, errors, replays)
        try:
            harness.rejective_sample(pi, np.random.default_rng(3))
        finally:
            restore()
            harness.rejective_sample = real
        passes = tracer.spans[0][4]["passes"]
        if corrupt:
            c.trips(errors, "a proxied draw that differs from the unwrapped draw")
        else:
            c.expect(not errors and replays[0] == 1 and passes >= 1,
                     f"counting proxy draws the unwrapped sample ({passes} passes)")


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                True: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    c = Checks()
    c.expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
             "BENCHMARK.json lists the workloads the benchmark runs")

    for workload in WORKLOADS:
        for trace in (False, True):
            label = f"{workload} toy trace={int(trace)}"
            record = run(workload, SEED, 1.0, trace, root, toy=True, keep_outputs=True)
            check_metrics(c, record, declared[trace], label)
            c.expect(set(record["env"]) == ENV_KEYS and record["env"]["seed"] == SEED,
                     f"{label}: environment block")
            workdir = record["workdir"]
            if not trace:
                scratch = os.path.join(workdir, "corrupt")
                outdir = os.path.join(workdir, "call-0")
                if workload == "big_impute":
                    check_impute_gates(c, outdir, record["spec"]["n_nonresp"], scratch)
                else:
                    check_simulate_gates(c, outdir, record["calls"][0]["attempted"], scratch)
            shutil.rmtree(workdir)

    check_trace_gates(c)
    print(f"{len(c.failures)} check(s) failed" if c.failures else "all checks passed")
    return 1 if c.failures else 0


if __name__ == "__main__":
    sys.exit(main())
