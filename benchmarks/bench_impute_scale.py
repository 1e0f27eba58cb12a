"""Time ``impute --method ebri`` on survey-sized sample files, stage by stage.

For each size in SIZES the script writes a seeded sample file with numpy
and plain string formatting (gamma sizes, v = z1, y = z1 + sqrt(z1) noise,
pi uniform in [0.01, 0.05], d = 1/pi, 55% response), so the input does not
depend on the package's writer.  Each call is ``balimpute.cli.main`` in a
fresh process, once with ``--report`` and once without.  The stages are
timed by wrapping the names ``cmd_impute`` calls through the ``cli``
module:

* ``read``: ``sample_from_csv``;
* ``fit``: ``fit_model``;
* ``impute``: ``impute_ebri``, the flight;
* ``write_csv``: ``_write_imputed_csv``;
* ``rest``: the call's wall time less those, which holds argument parsing,
  the checks and the report.

Each call also records its process's peak RSS and the SHA-256 of the files
it wrote.  ``--src LABEL=PATH`` (repeatable) names package source trees to
compare, as "before" and "after": the trees run in alternating order,
round by round, and the output hashes of every size and ``--report``
setting must agree between them.  Figures are medians over ROUNDS.

Run from the repo root, against a checkout of the parent commit:

    python3 benchmarks/bench_impute_scale.py --src before=../parent/src \\
        --src after=src --out BENCH.json
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

SIZES = (10_000, 100_000, 400_000)
ROUNDS = 3
SEED = 29
STAGES = {"sample_from_csv": "read", "fit_model": "fit", "impute_ebri": "impute",
          "_write_imputed_csv": "write_csv"}


def write_sample(path, n_rows: int, seed: int = SEED) -> None:
    """A sample file of ``n_rows`` units, drawn with numpy alone."""
    rng = np.random.default_rng([seed, n_rows])
    ids = np.cumsum(rng.integers(1, 50, n_rows))
    z1 = rng.gamma(2.0, 5.0, n_rows)
    y = z1 + np.sqrt(z1) * rng.normal(0.0, 3.0, n_rows)
    pi = rng.uniform(0.01, 0.05, n_rows)
    respond = rng.random(n_rows) < 0.55
    rows = (f"{k},{yk!r},{zk!r},{zk!r},{pk!r},{1.0 / pk!r},1" if r else
            f"{k},,{zk!r},{zk!r},{pk!r},{1.0 / pk!r},0"
            for k, yk, zk, pk, r in zip(ids.tolist(), y.tolist(), z1.tolist(), pi.tolist(),
                                        respond.tolist()))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("id,y,z1,v,pi,d,r\r\n")
        fh.writelines(row + "\r\n" for row in rows)


def time_call(sample, outdir, report: bool, seed: int = SEED) -> dict:
    """Seconds of each stage of one in-process ``impute --method ebri`` call,
    and of the whole call as ``total``."""
    from balimpute import cli

    seconds = dict.fromkeys(STAGES.values(), 0.0)
    originals = {name: getattr(cli, name) for name in STAGES}

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[STAGES[name]] += time.perf_counter() - t0
        return wrapper

    argv = ["impute", "--input", str(sample), "--method", "ebri", "--seed", str(seed),
            "--out", os.path.join(outdir, "imputed.csv")]
    if report:
        argv += ["--report", os.path.join(outdir, "report.json")]
    for name, fn in originals.items():
        setattr(cli, name, timed(name, fn))
    try:
        t0 = time.perf_counter()
        rc = cli.main(argv)
        total = time.perf_counter() - t0
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)
    if rc != 0:
        raise RuntimeError(f"impute exited with {rc}")
    seconds["rest"] = total - sum(seconds.values())
    seconds["total"] = total
    return seconds


def _child(spec) -> dict:
    """One call in this process: its stage seconds, peak RSS and output
    hashes."""
    with tempfile.TemporaryDirectory() as outdir:
        seconds = time_call(spec["sample"], outdir, spec["report"])
        hashes = {}
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name), "rb") as fh:
                hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"seconds": seconds, "peak_rss_mb": peak_mb, "sha256": hashes}


def measure(src, sample, report: bool) -> dict:
    """One call in a fresh process importing the package from ``src``."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    spec = json.dumps({"sample": str(sample), "report": report})
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", spec],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def run(srcs: dict, sizes=SIZES, rounds: int = ROUNDS) -> dict:
    """Per tree, size and ``--report`` setting: median stage seconds and
    peak RSS over the rounds, the output hashes, and whether every tree
    wrote the same bytes."""
    calls: dict = {}
    with tempfile.TemporaryDirectory() as workdir:
        for n_rows in sizes:
            sample = os.path.join(workdir, f"sample-{n_rows}.csv")
            write_sample(sample, n_rows)
            for r in range(rounds):
                labels = list(srcs) if r % 2 == 0 else list(srcs)[::-1]
                for label in labels:
                    for report in (False, True):
                        key = (n_rows, "report" if report else "no_report")
                        calls.setdefault(key, {}).setdefault(label, []).append(
                            measure(srcs[label], sample, report))
            os.remove(sample)
    results = []
    for (n_rows, mode), by_label in calls.items():
        row = {"n_rows": n_rows, "mode": mode, "trees": {}}
        for label, records in by_label.items():
            hashes = {json.dumps(rec["sha256"], sort_keys=True) for rec in records}
            row["trees"][label] = {
                "seconds_median": {stage: round(statistics.median(
                    rec["seconds"][stage] for rec in records), 4)
                    for stage in records[0]["seconds"]},
                "peak_rss_mb_median": round(statistics.median(
                    rec["peak_rss_mb"] for rec in records), 1),
                "sha256": records[0]["sha256"] if len(hashes) == 1 else "differs between runs",
            }
        row["identical_outputs"] = len({json.dumps(t["sha256"], sort_keys=True)
                                        for t in row["trees"].values()}) == 1
        results.append(row)
    return {"results": results}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", metavar="LABEL=PATH",
                        help="a package source tree to time (default: after=src)")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--out", help="also write the results as JSON here")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(_child(json.loads(args.child))))
        return 0

    srcs = dict(item.split("=", 1) for item in (args.src or ["after=src"]))
    report = {
        "benchmark": "impute --method ebri on survey-sized sample files, by stage",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
        },
        "rounds": args.rounds,
        "seed": SEED,
        **run(srcs, args.sizes, args.rounds),
    }
    env = report["environment"]
    print(f"python {env['python']}, numpy {env['numpy']}, {env['cpu_count']} cpus; "
          f"median of {args.rounds} rounds, each call a fresh process")
    for row in report["results"]:
        print(f"n = {row['n_rows']:,}, {row['mode']}: outputs "
              f"{'identical' if row['identical_outputs'] else 'DIFFER'} across trees")
        for label, tree in row["trees"].items():
            stages = "  ".join(f"{k} {v:.3f}" for k, v in tree["seconds_median"].items())
            print(f"  {label:>8}: {stages} s; peak RSS {tree['peak_rss_mb_median']:.1f} MB")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0 if all(row["identical_outputs"] for row in report["results"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())
