import importlib
import os
import subprocess
import sys


def test_benchmark_selftest_passes():
    # the self-test checks the package names the benchmark reads: the fock
    # caches it empties and counts, _MEMORY, ABOVE and the tracer's aliases
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, "benchmarks/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "self-tests passed" in proc.stdout


def test_every_traced_span_resolves(monkeypatch):
    # a renamed traced function would silently read 0 in its per-layer
    # metrics; the tracer's own lookup must find every span
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "benchmarks"))
    tracer = importlib.import_module("tracer")
    for name, module, path in tracer.SPANS:
        importlib.import_module(module)
        assert tracer._lookup(module, path) is not None, name
