import inspect
import os
import subprocess
import sys

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "bench")


def test_benchmark_selftest_passes():
    # one quick round of every workload, each check shown to reject a
    # perturbed output: a name a workload calls that moved or vanished
    # fails here
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "selftest.py")],
        capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_every_exported_function_reports_a_benchmark_layer(monkeypatch):
    # a traced benchmark run files each call under the last part of the
    # function's __module__ and stops at a layer its table does not have
    import qgle

    monkeypatch.syspath_prepend(BENCH_DIR)
    import harness

    layers = {fn.__module__.rsplit(".", 1)[-1]
              for fn in vars(qgle).values() if inspect.isfunction(fn)}
    assert layers <= set(harness.LAYERS)
