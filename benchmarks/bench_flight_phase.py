"""Time the flight-phase kernel on ebri cell grids of growing size.

Each grid is an n x n imputation grid (n nonrespondent rows, n donor
columns, one balance row plus n purity rows) built the way ``impute_ebri``
builds it, through ``CellPopulation.balance_problem``.  For every grid the
script reports the build time, the flight time (median and range over the
repeats), flight steps per second, and the peak resident set size of this
process after the grid, read with ``resource.getrusage``.  Grids run in
ascending size, so each peak covers that grid and the smaller ones before it.

Run from the repo root:

    PYTHONPATH=src python3 benchmarks/bench_flight_phase.py --out BENCH.json
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

from balimpute.cube import flight_phase
from balimpute.imputation import CellPopulation


def build_cells(n: int, rng: np.random.Generator) -> CellPopulation:
    return CellPopulation(
        row_units=np.arange(n),
        col_units=np.arange(n, 2 * n),
        psi=np.full((n, n), 1.0 / n),
        residuals=rng.standard_normal(n),
        dv=1.0 + rng.random(n),
        with_purity_vars=True,
    )


def peak_rss_mb() -> float:
    # ru_maxrss is in kilobytes on Linux, bytes on macOS
    scale = 1.0 if sys.platform == "darwin" else 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale / 1e6


def time_grid(n: int, seed: int, repeats: int) -> dict:
    cells = build_cells(n, np.random.default_rng(seed))
    t0 = time.perf_counter()
    problem = cells.balance_problem()
    build_s = time.perf_counter() - t0
    times = []
    for _ in range(repeats):
        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        result = flight_phase(problem, rng)
        times.append(time.perf_counter() - t0)
    med = statistics.median(times)
    return {
        "grid": f"{n}x{n}",
        "cells": problem.n_cells,
        "constraints": problem.n_constraints,
        "steps": result.steps,
        "build_ms": round(build_s * 1e3, 2),
        "flight_ms_median": round(med * 1e3, 2),
        "flight_ms_min": round(min(times) * 1e3, 2),
        "flight_ms_max": round(max(times) * 1e3, 2),
        "steps_per_s": round(result.steps / med),
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grids", default="50,100,200,500",
                        help="comma-separated grid sides n (n x n cells each)")
    parser.add_argument("--repeats", type=int, default=3, help="flights timed per grid")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="also write the results as JSON here")
    args = parser.parse_args()

    report = {
        "benchmark": "flight_phase on n x n ebri grids",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
        },
        "repeats": args.repeats,
        "seed": args.seed,
        "grids": [],
    }
    env = report["environment"]
    print(f"python {env['python']}, numpy {env['numpy']}, {env['cpu_count']} cpus; "
          f"{args.repeats} flights per grid")
    for n in sorted(int(x) for x in args.grids.split(",")):
        row = time_grid(n, args.seed, args.repeats)
        report["grids"].append(row)
        print(f"{row['grid']:>9}: {row['cells']:>7} cells  {row['steps']:>7} steps  "
              f"flight {row['flight_ms_median']:10.1f} ms  "
              f"{row['steps_per_s']:>8} steps/s  peak RSS {row['peak_rss_mb']:7.1f} MB")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
