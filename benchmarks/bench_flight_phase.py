"""Time the flight phase on ebri cell grids of growing size.

Each grid is an n x n imputation grid (n nonrespondent rows, n donor
columns, one balance row plus n purity rows) built the way ``impute_ebri``
builds it, through ``imputation.build_cells``, and walked by the grid walk
``flight_phase`` takes on that problem; its second phase is the one-row
walk on the rows phase 1 leaves split.  For each grid the script reports
the build time, the flight time (median and range over the repeats) and
flight steps per second.  Each grid runs in a fresh interpreter, so its
``peak_rss_mb``, read with ``resource.getrusage`` after its walks, is that
grid's own; ``base_rss_mb`` is the same interpreter's peak before the grid
is built.

Run from the repo root:

    PYTHONPATH=src python3 benchmarks/bench_flight_phase.py --out BENCH.json
"""

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

from balimpute.cube import CellGrid, flight_phase
from balimpute.imputation import build_cells


def peak_rss_mb() -> float:
    # ru_maxrss is in kilobytes on Linux, bytes on macOS
    scale = 1.0 if sys.platform == "darwin" else 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale / 1e6


def time_flight(problem: CellGrid, seed: int, repeats: int) -> dict:
    times = []
    for _ in range(repeats):
        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        result = flight_phase(problem, rng)
        times.append(time.perf_counter() - t0)
    med = statistics.median(times)
    return {
        "steps": result.steps,
        "flight_ms_median": round(med * 1e3, 2),
        "flight_ms_min": round(min(times) * 1e3, 2),
        "flight_ms_max": round(max(times) * 1e3, 2),
        "steps_per_s": round(result.steps / med),
    }


def time_grid(n: int, seed: int, repeats: int) -> dict:
    """The n x n grid's build and grid walk numbers, and the peak RSS."""
    base_rss = peak_rss_mb()
    rng = np.random.default_rng(seed)
    residuals = rng.standard_normal(n)  # drawn before dv, as for BENCH_4.json
    dv = 1.0 + rng.random(n)
    t0 = time.perf_counter()
    problem = build_cells(np.full(n, 1.0 / n), residuals, dv)
    build_s = time.perf_counter() - t0
    return {
        "grid": f"{n}x{n}",
        "cells": problem.n_cells,
        "constraints": 1 + problem.n_rows,  # the balance row and a purity row per row
        "build_ms": round(build_s * 1e3, 2),
        **time_flight(problem, seed, repeats),
        "base_rss_mb": round(base_rss, 1),
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grids", default="50,100,200,500,1000,2000,5000,10000",
                        help="comma-separated grid sides n (n x n cells each)")
    parser.add_argument("--repeats", type=int, default=3, help="flights timed per grid")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="also write the results as JSON here")
    args = parser.parse_args()

    report = {
        "benchmark": "flight_phase on n x n ebri grids: the grid walk",
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
    ctx = multiprocessing.get_context("spawn")
    for n in sorted(int(x) for x in args.grids.split(",")):
        with ctx.Pool(1) as pool:  # a fresh interpreter: the peak RSS is this grid's
            row = pool.apply(time_grid, (n, args.seed, args.repeats))
        report["grids"].append(row)
        print(f"{row['grid']:>11}: {row['cells']:>9} cells  {row['steps']:>7} steps  "
              f"flight {row['flight_ms_median']:10.1f} ms  {row['steps_per_s']:>8} steps/s  "
              f"peak RSS {row['peak_rss_mb']:.1f} MB "
              f"(before the grid {row['base_rss_mb']:.1f} MB)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
