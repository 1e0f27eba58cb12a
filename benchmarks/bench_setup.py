"""Time the per-population set-up of a census-sized ``simulate`` call.

The population is the census one of the benchmark (N = 1,000,000 gamma
sizes, signal share 0.36, n = 100, pips-rejective design, one MAR level of
mean response 0.9 with lambda1 = 0.1, alphas 0.25 and 0.5).  The script
times each set-up stage alone, on the main thread:

* ``sizes``: ``draw_sizes``, the gamma draw;
* ``noise_and_y``: the rest of ``generate_population``, given the sizes;
* ``calibrate_mar``: the MAR response calibration on the sizes;
* ``truths``: ``population_truths``, the quantiles and F_N at them from one
  sort; ``truths_two_sorts`` times the ``quantile`` and ``fn_population``
  calls per alpha that it replaced;
* ``pips_probabilities`` and ``rejective_design``;

and then the whole set-up of ``run_experiment`` (``harness._set_up``) at
one worker, where the stages run one after the other, and at two, where
the calibration runs on a helper thread while the main thread draws the
noise and sets up the truths and the design.  Every figure is the median
of RUNS rounds; the set-up at one and at two workers alternate
within a round, so drift on a shared machine reaches both.

Run from the repo root:

    PYTHONPATH=src python3 benchmarks/bench_setup.py --out BENCH.json
"""

import argparse
import json
import os
import platform
import statistics
import time

import numpy as np

from balimpute import harness
from balimpute.estimators import fn_population, population_truths, quantile
from balimpute.harness import ExperimentConfig, MechanismSpec
from balimpute.imputation import calibrate_mar
from balimpute.population import PopulationRecipe, draw_sizes, generate_population
from balimpute.sampling import RejectiveDesign, pips_probabilities

N_UNITS = 1_000_000
RUNS = 9
SEED = 25


def census_config(n_units: int, workers: int) -> ExperimentConfig:
    return ExperimentConfig(
        seed=SEED,
        populations=(PopulationRecipe(n_units=n_units, beta=(1.0,), target_r2=0.36),),
        mechanisms=(MechanismSpec("mar", 0.9),),
        sample_size=100,
        replications=1,
        mar_lambda1=0.1,
        workers=workers,
    )


def _timed(fn, *args):
    """(fn(*args), its wall time in ms)."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - t0) * 1e3


def time_setup(n_units: int = N_UNITS, runs: int = RUNS) -> dict:
    """Median ms of each stage alone and of the whole set-up at one and at
    two workers."""
    configs = {w: census_config(n_units, w) for w in (1, 2)}
    recipe = configs[1].populations[0]
    times: dict = {}

    def record(name, timed):
        times.setdefault(name, []).append(timed[1])
        return timed[0]

    def two_sorts(y):
        return [fn_population(y, quantile(y, a)) for a in (0.25, 0.5)]

    for _ in range(runs):
        rng = np.random.default_rng(SEED)
        z1 = record("sizes", _timed(draw_sizes, recipe, rng))
        pop = record("noise_and_y", _timed(lambda: generate_population(recipe, rng, z1=z1)))
        record("calibrate_mar", _timed(calibrate_mar, z1, 0.1, 0.9))
        record("truths", _timed(population_truths, pop.y, (0.25, 0.5)))
        record("truths_two_sorts", _timed(two_sorts, pop.y))
        pi = record("pips_probabilities", _timed(pips_probabilities, z1, 100))
        record("rejective_design", _timed(RejectiveDesign, pi))
        del pop, pi, z1
        for workers in (1, 2):
            record(f"set_up_workers_{workers}", _timed(harness._set_up, configs[workers], 0, workers))
    return {name: round(statistics.median(v), 2) for name, v in times.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the results as JSON here")
    args = parser.parse_args()

    ms = time_setup()
    report = {
        "benchmark": "per-population set-up of run_experiment at N = 1,000,000",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
        },
        "n_units": N_UNITS,
        "runs": RUNS,
        "seed": SEED,
        "ms_median": ms,
    }
    env = report["environment"]
    print(f"python {env['python']}, numpy {env['numpy']}, {env['cpu_count']} cpus; "
          f"N = {N_UNITS:,}; median ms of {RUNS} rounds")
    for name, value in ms.items():
        print(f"{name:>22}: {value:8.2f} ms")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
