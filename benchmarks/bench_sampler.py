"""Time the rejective (conditional Poisson) sampler on pips designs.

For each population size N and sample size n, a population is generated
with ``generate_population`` (signal share 0.36) and its pips inclusion
probabilities are computed once.  The script then times
``RejectiveDesign(pi)`` (median set-up over a few builds) and rounds of a
fixed number of ``rejective_sample`` draws from it, and reports the
proposal the design chose, attempts per draw (``rng.random`` calls, one
per attempt) and ms per draw (median over the rounds).  The same draws are timed through the Bernoulli rejection
loop the sampler had before the design existed (``bernoulli_loop`` below,
kept as it was), as the "before" figures; that loop has no set-up and
validates pi in every draw.

Run from the repo root:

    PYTHONPATH=src python3 benchmarks/bench_sampler.py --out BENCH.json
"""

import argparse
import json
import os
import platform
import statistics
import time

import numpy as np

from balimpute.population import PopulationRecipe, generate_population
from balimpute.sampling import (
    MAX_REJECTIVE_ATTEMPTS,
    RejectiveDesign,
    SamplingError,
    _sample_from,
    pips_probabilities,
    rejective_sample,
)

SIZES = ((10_000, 100), (10_000, 300), (10_000, 1000), (20_000, 400), (1_000_000, 100))
DRAWS = 50
SETUP_REPEATS = 5
ROUNDS = 3
SEED = 9


def bernoulli_loop(pi, rng):
    """The sampler before RejectiveDesign: Bernoulli rejection only."""
    pi = np.asarray(pi, dtype=np.float64)
    if np.any(pi <= 0) or np.any(pi > 1):
        raise ValueError("inclusion probabilities must lie in (0, 1]")
    n_target = round(float(pi.sum()))
    if abs(pi.sum() - n_target) > 1e-9:
        raise ValueError(f"sum(pi) = {pi.sum()!r} is not integral")
    for _ in range(MAX_REJECTIVE_ATTEMPTS):
        mask = rng.random(pi.size) < pi
        if int(mask.sum()) == n_target:
            return _sample_from(np.flatnonzero(mask), pi)
    raise SamplingError("rejective sampling did not reach the target size")


class CountingRng:
    """Generator proxy counting ``random`` calls: one per attempt."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return self._rng.random(*args, **kwargs)


def time_draws(sample_fn, design, draws: int, seed: int) -> tuple[float, float]:
    """(attempts per draw, seconds per draw) over ``draws`` draws."""
    rng = CountingRng(np.random.default_rng(seed))
    t0 = time.perf_counter()
    for _ in range(draws):
        sample_fn(design, rng)
    return rng.calls / draws, (time.perf_counter() - t0) / draws


def time_design(n_units: int, n: int, draws: int = DRAWS, seed: int = SEED) -> dict:
    recipe = PopulationRecipe(n_units=n_units, beta=(1.0,), target_r2=0.36)
    pop = generate_population(recipe, np.random.default_rng(seed))
    pi = pips_probabilities(pop.z1, n)
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        design = RejectiveDesign(pi)
        setup.append(time.perf_counter() - t0)
    # the two samplers take turns, so that drift on a shared machine
    # reaches both; every round repeats the same draws
    after, before = [], []
    for _ in range(ROUNDS):
        after.append(time_draws(rejective_sample, design, draws, seed))
        before.append(time_draws(bernoulli_loop, pi, draws, seed))

    def figures(runs):
        return {"attempts_per_draw": round(runs[0][0], 2),
                "ms_per_draw": round(statistics.median(t for _, t in runs) * 1e3, 3)}

    return {
        "N": n_units,
        "n": n,
        "proposal": design.proposal,
        "setup_ms": round(statistics.median(setup) * 1e3, 3),
        **figures(after),
        "before": {"setup_ms": 0.0, **figures(before)},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the results as JSON here")
    args = parser.parse_args()

    report = {
        "benchmark": "rejective_sample on pips designs: RejectiveDesign against the "
                     "Bernoulli rejection loop",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
        },
        "draws": DRAWS,
        "rounds": ROUNDS,
        "seed": SEED,
        "designs": [],
    }
    env = report["environment"]
    print(f"python {env['python']}, numpy {env['numpy']}, {env['cpu_count']} cpus; "
          f"{ROUNDS} rounds of {DRAWS} draws per design; ms/draw is the median round")
    for n_units, n in SIZES:
        row = time_design(n_units, n)
        report["designs"].append(row)
        before = row["before"]
        print(f"N={n_units:>9} n={n:>5} {row['proposal']:>11}: set-up {row['setup_ms']:8.2f} ms"
              f"  {row['attempts_per_draw']:8.2f} attempts  {row['ms_per_draw']:8.3f} ms/draw"
              f"  | before {before['attempts_per_draw']:8.2f} attempts"
              f"  {before['ms_per_draw']:8.3f} ms/draw")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
