"""``benchmarks/bench_impute_scale.py`` times ``impute`` through the names
``cmd_impute`` calls; a change to them fails here, not only in a bench run."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_impute_scale_times_every_stage(tmp_path):
    path = os.path.join(ROOT, "benchmarks", "bench_impute_scale.py")
    spec = importlib.util.spec_from_file_location("bench_impute_scale", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    sample = tmp_path / "sample.csv"
    bench.write_sample(sample, 200)
    for report in (False, True):
        outdir = tmp_path / str(report)
        outdir.mkdir()
        seconds = bench.time_call(sample, str(outdir), report)
        assert set(seconds) == {"read", "fit", "impute", "write_csv", "rest", "total"}
        assert all(v > 0 for v in seconds.values()), seconds
        assert sorted(os.listdir(outdir)) == (["imputed.csv", "report.json"] if report
                                              else ["imputed.csv"])
    # one call in a fresh process, as the script makes them
    call = bench.measure(os.path.join(ROOT, "src"), sample, True)
    assert call["peak_rss_mb"] > 0
    assert set(call["sha256"]) == {"imputed.csv", "report.json"}
