"""``benchmarks/bench_setup.py`` times the harness set-up through the
functions it calls; a change to them fails here, not only in a bench run."""

import importlib.util
import os
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_setup_times_every_stage():
    path = os.path.join(ROOT, "benchmarks", "bench_setup.py")
    spec = importlib.util.spec_from_file_location("bench_setup", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    before = threading.active_count()
    ms = bench.time_setup(n_units=2_000, runs=1)
    assert set(ms) == {"sizes", "noise_and_y", "calibrate_mar", "truths", "truths_two_sorts",
                       "pips_probabilities", "rejective_design",
                       "set_up_workers_1", "set_up_workers_2"}
    assert all(v > 0 for v in ms.values()), ms
    assert threading.active_count() == before
