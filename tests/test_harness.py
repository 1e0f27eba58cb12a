import concurrent.futures
import logging
import pickle
import threading
import tracemalloc

import numpy as np
import pytest

from balimpute import harness
from balimpute.cube import FlightPhaseError
from balimpute.imputation import calibrate_mar
from balimpute.harness import (
    ExperimentConfig,
    MechanismSpec,
    mean_squared_error,
    relative_bias_percent,
    relative_efficiency,
    run_experiment,
    write_tables,
)
from balimpute.population import PopulationRecipe, generate_population
from balimpute.sampling import srswor


def tiny_config(**overrides):
    base = dict(
        seed=101,
        populations=(PopulationRecipe(n_units=600, beta=(1.0,), target_r2=0.36),),
        mechanisms=(MechanismSpec("mcar", 0.5),),
        sample_size=30,
        replications=20,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_metric_trivials():
    est = np.array([5.0, 5.0, 5.0])
    assert relative_bias_percent(est, 5.0) == 0.0
    assert mean_squared_error(est, 5.0) == 0.0
    assert relative_bias_percent(est * 1.01, 5.0) == pytest.approx(1.0, rel=1e-12)
    assert relative_efficiency(3.0, 3.0) == 1.0
    with pytest.raises(ValueError):
        relative_bias_percent(est, 0.0)


def test_mechanism_labels():
    assert MechanismSpec("mcar", 0.5).label == "mcar0.5"
    assert MechanismSpec("mar", 0.75).label == "mar0.75"
    assert MechanismSpec("full").label == "full"
    with pytest.raises(ValueError):
        MechanismSpec("mcar")
    with pytest.raises(ValueError):
        MechanismSpec("full", 0.5)
    with pytest.raises(ValueError):
        MechanismSpec("census")


def test_config_roundtrip_and_validation():
    cfg = tiny_config()
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ValueError):
        tiny_config(replications=0)
    with pytest.raises(ValueError):
        tiny_config(design="stratified")
    with pytest.raises(ValueError):
        tiny_config(methods=("dri", "bootstrap"))


@pytest.mark.parametrize("workers", [0, -2])
def test_nonpositive_workers_rejected(workers):
    with pytest.raises(ValueError, match="workers"):
        tiny_config(workers=workers)


def test_workers_default_from_environment(monkeypatch):
    monkeypatch.delenv("BALIMPUTE_WORKERS", raising=False)
    assert tiny_config().resolved_workers() == 1
    monkeypatch.setenv("BALIMPUTE_WORKERS", "2")
    assert tiny_config().resolved_workers() == 2
    assert tiny_config(workers=1).resolved_workers() == 1
    monkeypatch.setenv("BALIMPUTE_WORKERS", "0")
    with pytest.raises(ValueError, match="BALIMPUTE_WORKERS"):
        tiny_config().resolved_workers()


def test_noiseless_full_response_is_exact():
    # sigma2 = 0 makes y proportional to the size variable, so the design
    # weights reproduce the total exactly in every replicate
    cfg = tiny_config(
        populations=(PopulationRecipe(n_units=400, beta=(1.0,), sigma2=0.0),),
        mechanisms=(MechanismSpec("full"),),
        replications=1,
        alphas=(),
    )
    res = run_experiment(cfg)
    cell = res.cell(0, "full")
    for method in ("dri", "rri", "ebri"):
        assert cell.rb[(method, "total")] == pytest.approx(0.0, abs=1e-9)
        assert cell.mse[(method, "total")] == pytest.approx(0.0, abs=1e-12)


def test_determinism_same_seed():
    a = run_experiment(tiny_config())
    b = run_experiment(tiny_config())
    ca, cb = a.cells[0], b.cells[0]
    assert ca.rb == cb.rb
    assert ca.mse == cb.mse
    assert ca.re == cb.re


def test_worker_count_does_not_change_results():
    a = run_experiment(tiny_config(workers=1))
    b = run_experiment(tiny_config(workers=2))
    assert a.cells[0].rb == b.cells[0].rb
    assert a.cells[0].mse == b.cells[0].mse


def test_uneven_chunks_give_identical_tables(tmp_path):
    # 21 replicates split 11 + 10 over two workers
    for workers in (1, 2):
        res = run_experiment(tiny_config(replications=21, workers=workers))
        write_tables(res, tmp_path / str(workers))
    for name in ("table_total.csv", "table_df.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


@pytest.mark.parametrize("reps, workers, sizes", [
    (24, 2, [12, 12]),
    (21, 2, [11, 10]),
    (20, 3, [7, 7, 6]),
    (200, 2, [64, 64, 64, 8]),
])
def test_chunks_are_balanced_over_workers(monkeypatch, reps, workers, sizes):
    seen = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunk_args):
            seen.append([len(args[-1]) for args in chunk_args])
            return map(fn, chunk_args)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(harness, "_worker_population", None)
    run_experiment(tiny_config(replications=reps, workers=workers))
    assert seen == [sizes]


def test_chunk_arguments_carry_no_population(monkeypatch):
    # the population reaches pool workers once, through the initializer;
    # each chunk carries only per-cell values and its replicate numbers
    sizes = []

    class PicklingPool:
        def __init__(self, max_workers, initializer, initargs):
            initializer(*pickle.loads(pickle.dumps(initargs)))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunk_args):
            sizes.extend(len(pickle.dumps(args)) for args in chunk_args)
            return map(fn, chunk_args)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", PicklingPool)
    monkeypatch.setattr(harness, "_worker_population", None)
    pops = (PopulationRecipe(n_units=20_000, beta=(1.0,), target_r2=0.36),)
    cell = run_experiment(tiny_config(populations=pops, replications=4, workers=2)).cells[0]
    assert cell.n_ok == 4
    assert len(sizes) == 2
    assert max(sizes) < 64 * 1024, sizes


def test_kept_replicates_reproduce_aggregates():
    cfg = tiny_config(keep_replicates=True)
    res = run_experiment(cfg)
    cell = res.cells[0]
    assert cell.replicates is not None
    for key, vals in cell.replicates.items():
        assert vals.shape == (cfg.replications,)
        assert np.all(np.isfinite(vals))
    est = cell.replicates[("ebri", "total")]
    assert relative_bias_percent(est, cell.theta_total) == cell.rb[("ebri", "total")]
    assert mean_squared_error(est, cell.theta_total) == cell.mse[("ebri", "total")]


def test_method_order_does_not_change_draws():
    # methods draw in METHODS order whatever order the config lists them in,
    # so each method's replicates match those of the default list
    runs = [run_experiment(tiny_config(methods=methods, keep_replicates=True)).cells[0]
            for methods in (("ebri", "rri"), ("rri", "ebri"), ("dri", "rri", "ebri"))]
    for key, vals in runs[0].replicates.items():
        for other in runs[1:]:
            np.testing.assert_array_equal(other.replicates[key], vals, err_msg=str(key))
    assert {m for m, _ in runs[0].replicates} == {"rri", "ebri"}


def test_srswor_design_replays_its_samples():
    # full response: every method's total is the expansion total N/n sum(y)
    # of the sample that srswor draws from the replicate's generator
    cfg = tiny_config(design="srswor", mechanisms=(MechanismSpec("full"),),
                      replications=5, keep_replicates=True)
    cell = run_experiment(cfg).cells[0]
    pop = generate_population(
        cfg.populations[0], np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,))))
    n_pop, n = pop.size, cfg.sample_size
    for r in range(cfg.replications):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0, 0, r)))
        expected = n_pop / n * pop.y[srswor(n_pop, n, rng).indices].sum()
        for method in ("dri", "rri", "ebri"):
            assert cell.replicates[(method, "total")][r] == pytest.approx(expected, rel=1e-12)


def test_rri_is_efficiency_reference():
    res = run_experiment(tiny_config())
    cell = res.cells[0]
    assert cell.re[("rri", "total")] == 1.0
    for j in range(2):
        assert cell.re[("rri", f"df@{j}")] == 1.0


def test_mar_mechanism_runs():
    cfg = tiny_config(mechanisms=(MechanismSpec("mar", 0.75),), replications=10)
    res = run_experiment(cfg)
    assert res.cell(0, "mar0.75").n_ok == 10


def test_aborted_replicates_are_counted(monkeypatch, caplog):
    import balimpute.harness as H

    calls = {"n": 0}
    real = H.impute_rri

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 3:
            raise FlightPhaseError("synthetic failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(H, "impute_rri", flaky)
    cfg = tiny_config(replications=400, workers=1)
    with caplog.at_level(logging.WARNING):
        res = run_experiment(cfg)
    cell = res.cells[0]
    assert cell.n_aborted == 1
    assert cell.n_ok == 399
    assert any("aborted" in rec.message for rec in caplog.records)


def test_too_many_aborts_fail_the_run(monkeypatch):
    import balimpute.harness as H

    def broken(*args, **kwargs):
        raise FlightPhaseError("always down")

    monkeypatch.setattr(H, "impute_ebri", broken)
    with pytest.raises(RuntimeError, match="aborted"):
        run_experiment(tiny_config(replications=20, workers=1))


def test_bug_in_a_replicate_propagates(monkeypatch):
    # only declared numerical failures count as aborted replicates
    import balimpute.harness as H

    def buggy(*args, **kwargs):
        raise TypeError("not a numerical failure")

    monkeypatch.setattr(H, "impute_ebri", buggy)
    with pytest.raises(TypeError, match="not a numerical failure"):
        run_experiment(tiny_config(replications=400, workers=1))


def test_value_error_in_a_replicate_propagates(monkeypatch):
    # a shape or argument bug raises ValueError too; even once in 400
    # replicates, where an abort would be within the allowed share, it is
    # not counted as one
    import balimpute.harness as H

    calls = {"n": 0}
    real = H.impute_ebri

    def buggy_once(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 3:
            raise ValueError("operands could not be broadcast together")
        return real(*args, **kwargs)

    monkeypatch.setattr(H, "impute_ebri", buggy_once)
    with pytest.raises(ValueError, match="broadcast"):
        run_experiment(tiny_config(replications=400, workers=1))


def test_zero_respondent_replicate_is_counted(monkeypatch):
    import balimpute.harness as H

    calls = {"n": 0}
    real = H.generate_response

    def nobody_once(z1, mechanism, rng):
        calls["n"] += 1
        if calls["n"] == 5:
            return np.zeros(z1.shape[0], dtype=bool)
        return real(z1, mechanism, rng)

    monkeypatch.setattr(H, "generate_response", nobody_once)
    cell = run_experiment(tiny_config(replications=400, workers=1)).cells[0]
    assert (cell.n_aborted, cell.n_ok) == (1, 399)


def test_write_tables_layout(tmp_path):
    cfg = tiny_config(
        populations=(
            PopulationRecipe(n_units=400, beta=(1.0,), target_r2=0.36),
            PopulationRecipe(n_units=400, beta=(1.0,), target_r2=0.64),
        ),
        mechanisms=(MechanismSpec("mcar", 0.5), MechanismSpec("mar", 0.75)),
        replications=5,
    )
    res = run_experiment(cfg)
    write_tables(res, tmp_path)
    total = (tmp_path / "table_total.csv").read_text().strip().splitlines()
    header = total[0].split(",")
    assert header[:2] == ["population", "metric"]
    assert "mcar0.5_dri" in header and "mar0.75_ebri" in header
    assert len(total) == 1 + 2 * 2  # two populations x (rb, re)
    df = (tmp_path / "table_df.csv").read_text().strip().splitlines()
    assert len(df) == 1 + 2 * 2 * 2  # populations x alphas x (rb, re)
    assert (tmp_path / "run_meta.json").exists()


def mixed_config(**overrides):
    # two MAR levels and one MCAR level: with two workers the MAR levels
    # are calibrated on the helper thread, one after the other
    return tiny_config(
        populations=(PopulationRecipe(n_units=20_000, beta=(1.0,), target_r2=0.36),),
        mechanisms=(MechanismSpec("mar", 0.75), MechanismSpec("mcar", 0.5),
                    MechanismSpec("mar", 0.5)),
        replications=6,
        **overrides,
    )


def test_calibration_thread_gives_identical_tables(tmp_path, monkeypatch):
    seen = []
    real = harness.calibrate_mar

    def recording(z1, lambda1, target_mean, out=None):
        seen.append((threading.current_thread() is threading.main_thread(), out is not None))
        return real(z1, lambda1, target_mean, out=out)

    monkeypatch.setattr(harness, "calibrate_mar", recording)
    for workers in (1, 2):
        write_tables(run_experiment(mixed_config(workers=workers)), tmp_path / str(workers))
    # one worker calibrates on the main thread, two on the helper, into the
    # main thread's buffer
    assert seen == [(True, False)] * 2 + [(False, True)] * 2
    for name in ("table_total.csv", "table_df.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_no_thread_is_alive_when_the_pool_starts(monkeypatch):
    threads_at_start = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            threads_at_start.append(threading.active_count())
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    before = threading.active_count()
    cell = run_experiment(mixed_config(workers=2)).cell(0, "mar0.5")
    assert cell.n_ok == 6
    assert threads_at_start == [before]
    assert threading.active_count() == before


def test_calibrate_mar_into_a_buffer():
    z1 = np.random.default_rng(4).gamma(2.0, 5.0, size=200_000)
    buffer = np.empty_like(z1)
    tracemalloc.start()
    try:
        with_buffer = calibrate_mar(z1, 0.1, 0.9, out=buffer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert with_buffer == calibrate_mar(z1, 0.1, 0.9)
    # every pass writes phi into the buffer: no array of z1's length is made
    assert peak < z1.nbytes / 10, peak
