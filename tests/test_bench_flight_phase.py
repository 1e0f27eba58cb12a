"""``benchmarks/bench_flight_phase.py`` builds its grids through the
imputation API; a change to that API fails here, not only in a bench run."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_flight_phase_times_a_grid():
    path = os.path.join(ROOT, "benchmarks", "bench_flight_phase.py")
    spec = importlib.util.spec_from_file_location("bench_flight_phase", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    row = bench.time_grid(10, seed=0, repeats=1)
    assert row["grid"] == "10x10"
    assert row["cells"] == 100
    assert row["constraints"] == 11
    assert row["steps"] >= 1
