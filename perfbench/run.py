"""balimpute benchmark: one workload, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table_mc --seed 1 --seconds 30 --trace 0

The program is used from source (``src/`` on PYTHONPATH); nothing is
installed.  Inputs are generated from ``--seed`` into ``perfbench/work/``,
the workload runs in a fresh process that calls ``balimpute.cli.main``, and
every output is checked.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when a correctness gate failed.  A detailed
record (per-call times, environment, spans of a traced run) goes to
``perfbench/work/results/``.

End-to-end metrics (``--trace 0``), on every workload:

* ``setup_s``: median wall time of a fresh interpreter that imports
  balimpute and runs one 4-cell flight phase, which every CLI call pays;
* ``replicates_per_s``: replicates completed over the summed wall time of
  the run's calls.  On the MC workloads a replicate is one sample imputed
  by dri, rri and ebri and estimated (total and two distribution-function
  points), and the wall time includes the per-cell set-up of
  ``run_experiment``; on big_impute a replicate is one ``impute`` call;
* ``impute_s``: median wall time of one product CLI call: ``impute`` on
  big_impute, ``simulate`` on the MC workloads;
* ``peak_rss_mb``: the larger of the workload process's and its pool
  workers' peak RSS.

Calls are made for ``--seconds`` (at least three), and the set-up is
repeated 11 times, half before the calls and half after them.  On a shared
2-core machine speed drifts by up to 30% in episodes of tens of seconds,
which one run's figures cannot fully absorb.

The failure rate (failed over attempted operations) is printed on its own
line and carried by ``attempted`` and ``failed``; an operation is one
replicate or one ``impute`` call.  It is 0 on a correct program, so it is
not among the metrics of the result line.  ``--trace 1`` reports the
per-layer metrics instead; see tracing.py.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from workload import WORKLOADS, make_inputs

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_RUNS = 11
CHILD_TIMEOUT_S = 160.0
SETUP_TIMEOUT_S = 60.0
SETUP_CODE = (
    "import numpy as np\n"
    "import balimpute\n"
    "from balimpute.cube import BalanceProblem, flight_phase\n"
    "flight_phase(BalanceProblem(pi0=np.full(4, 0.5), a_matrix=np.ones((1, 4))),"
    " np.random.default_rng(0))\n"
)


def product_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment(seed: int) -> dict:
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_imports": numba_imports,
        "BALIMPUTE_NUMBA": os.environ.get("BALIMPUTE_NUMBA"),
        "BALIMPUTE_WORKERS": os.environ.get("BALIMPUTE_WORKERS"),
        "cpu_count": os.cpu_count(),
        "seed": seed,
    }


def measure_setup(env: dict, runs: int) -> list:
    """Wall seconds of fresh interpreters doing the CLI's fixed start-up.
    One untimed run first writes the bytecode caches."""
    times = []
    for i in range(runs + 1 if runs else 0):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=env,
                                stdout=subprocess.DEVNULL)
        # A blocking wait: Popen.wait(timeout=...) polls in 50 ms sleeps,
        # which would round every time up to the next poll.
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"set-up interpreter exited with {rc}")
        if i:
            times.append(wall)
    return times


def run(workload: str, seed: int, seconds: float, trace: bool, root: str,
        toy: bool = False, keep_outputs: bool = False) -> dict:
    """Run one workload; returns the result line plus the detailed record."""
    t_start = time.perf_counter()
    tag = f"{workload}-seed{seed}-trace{int(trace)}{'-toy' if toy else ''}"
    workdir = os.path.join(HERE, "work", f"{tag}-{os.getpid()}")
    results_dir = os.path.join(HERE, "work", "results")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    env = product_env(root)
    record = {"workload": workload, "env": environment(seed), "seconds": seconds,
              "trace": trace, "toy": toy}

    # Half the set-up runs before the workload and half after it, so that
    # setup_s samples the machine at both ends of the run.
    setup_runs = 0 if trace else 3 if toy else SETUP_RUNS
    setup = measure_setup(env, setup_runs // 2)
    spec = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "workdir": workdir, "results_dir": results_dir, "tag": tag,
            "result": os.path.join(workdir, "result.json"),
            "keep_outputs": keep_outputs,
            **make_inputs(workload, seed, workdir, toy)}
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1)

    log_path = os.path.join(workdir, "workload.log")
    with open(log_path, "w", encoding="utf-8") as log:
        # its own session, so a timeout also stops the pool workers
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "workload.py"), spec_path],
            env=env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S - (time.perf_counter() - t_start))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if rc != 0:
        with open(log_path, encoding="utf-8") as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise RuntimeError(f"workload process exited with {rc}")
    setup += measure_setup(env, setup_runs - setup_runs // 2)
    with open(spec["result"], encoding="utf-8") as fh:
        child = json.load(fh)
    record.update(child)

    calls = child["calls"]
    attempted = sum(c["attempted"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    errors = [e for c in calls for e in c["errors"]] + child.get("trace_errors", [])
    if trace:
        metrics = child["metrics"]
    else:
        walls = [c["wall_s"] for c in calls]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "replicates_per_s": {"value": (attempted - failed) / sum(walls), "unit": "1/s"},
            "impute_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
        }
        record["setup_runs_s"] = setup
    result = {"correct": not errors and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record["result"] = result
    record["errors"] = errors
    record["workdir"] = workdir
    record["spec"] = spec
    with open(os.path.join(results_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if not keep_outputs:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="balimpute benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "balimpute", "cli.py")):
        print("error: run from the root of a balimpute checkout (src/balimpute is missing)",
              file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    result = record["result"]

    print("env: " + json.dumps(record["env"], sort_keys=True))
    for c in record["calls"]:
        print(f"call {c['call']}: {c['wall_s']:.3f} s, exit {c['rc']}, "
              f"{c['attempted']} attempted, {c['failed']} failed")
    for e in record["errors"]:
        print(f"GATE FAILED: {e}")
    print(f"failure_rate: {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
