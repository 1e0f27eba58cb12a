"""The benchmark's patch points, checked with the benchmark's own code.

``perfbench/tracing.py`` wraps product functions by name on the ``cli``,
``harness`` and ``imputation`` namespaces, and ``perfbench/run.py`` times a
fixed set-up snippet.  A refactor that renames or drops one of those names
fails here, not only in a benchmark run.  ``perfbench/selfcheck.py``'s trace
gates, which build and replace the product's dataclasses, run here too.
"""

import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_setup_and_tracing_hooks(monkeypatch, capsys):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    run = importlib.import_module("run")
    tracing = importlib.import_module("tracing")
    exec(run.SETUP_CODE, {})

    from balimpute import cli

    tracer = tracing.Tracer()
    errors = []
    restore = tracing.install(tracer, errors, [0])
    try:
        rc = cli.main(["example"])
    finally:
        restore()
    capsys.readouterr()
    assert rc == 0
    assert errors == []
    names = {span[0] for span in tracer.spans}
    assert {"imputation.build_cells", "cube.flight_phase"} <= names


def test_benchmark_trace_gates_pass_on_the_product(monkeypatch, capsys):
    # the self-check's product-facing part: a real ebri draw, replace() on an
    # ImputedDataset and a SampleData, and rejective_sample with raw pi
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    selfcheck = importlib.import_module("selfcheck")
    checks = selfcheck.Checks()
    selfcheck.check_trace_gates(checks)
    capsys.readouterr()
    assert checks.failures == []
