"""The benchmark's patch points, checked with the benchmark's own code.

``perfbench/tracing.py`` wraps product functions by name on the ``cli``,
``harness`` and ``imputation`` namespaces, and ``perfbench/run.py`` times a
fixed set-up snippet.  A refactor that renames or drops one of those names
fails here, not only in a benchmark run.
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
    assert any(span[0] == "cube.flight_phase" for span in tracer.spans)
