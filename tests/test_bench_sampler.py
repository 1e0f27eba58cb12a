"""``benchmarks/bench_sampler.py`` times the sampler through its public
API; a change to that API fails here, not only in a bench run."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_sampler_times_a_design():
    path = os.path.join(ROOT, "benchmarks", "bench_sampler.py")
    spec = importlib.util.spec_from_file_location("bench_sampler", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    row = bench.time_design(2_000, 20, draws=3)
    assert (row["N"], row["n"], row["proposal"]) == (2_000, 20, "multinomial")
    assert row["attempts_per_draw"] >= 1 and row["ms_per_draw"] > 0
    # the loop before the design draws by Bernoulli rejection
    assert row["before"]["attempts_per_draw"] >= 1
