"""Self-tests of the benchmark's own machinery: fresh state, exact
counters, the correctness gate and the tracer.

    python3 benchmarks/selftest.py

Prints one line per test and exits 0 when all pass.  Takes about 5 s.
"""

import contextlib
import functools
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import traceback

import harness
import run
import tracer

cli = harness.import_cli()
from bihooks import fock, laurent, partitions, tableaux  # noqa: E402

SMALL_LLT = harness.Op("verify llt --e 2 --max-n 6 --max-kj 3",
                       ("verify", "--suite", "llt", "--e", "2", "--max-n", "6",
                        "--max-kj", "3"), "verify")


def _workdir() -> str:
    os.makedirs(harness.WORK_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=harness.WORK_ROOT)


def test_every_cache_is_found_and_emptied():
    caches = harness.discover_caches()
    for name in run.LRU_CACHES + ("tableaux.count_standard", "schur._horizontal_strips"):
        assert name in caches, f"{name} not discovered"
    # a cache added to any package module later is found by the walk
    probe = functools.lru_cache(maxsize=None)(lambda x: x)
    probe.__module__, probe.__qualname__ = "bihooks.padic", "_probe"
    sys.modules["bihooks.padic"]._probe = probe
    try:
        assert "padic._probe" in harness.discover_caches()
    finally:
        del sys.modules["bihooks.padic"]._probe
    result = harness.run_op(cli, harness.llt_ops()[0], caches)
    assert result.ok, result.detail
    assert any(c.cache_info().currsize for c in caches.values())
    fock._MEMORY[(0, 2, fock.ABOVE)] = fock.canonical_basis(0, 2, use_cache=False)
    harness.reset_state(caches)
    assert not any(c.cache_info().currsize for c in caches.values())
    assert not fock._MEMORY

    class Stuck:  # a cache that does not empty must stop the op
        def cache_clear(self):
            pass

        def cache_info(self):
            return functools._CacheInfo(0, 0, None, 1)

    try:
        harness.reset_state({**caches, "stuck": Stuck()})
    except RuntimeError as exc:
        assert "stuck" in str(exc)
    else:
        raise AssertionError("a non-empty cache passed the op-start check")


def test_prefix_counts_match_roadmap():
    assert run.prefix_counts([(2, 14)]) == (613, 211)
    assert run.prefix_counts([(3, 15)]) == (3528, 972)


def test_corrupted_llt_output_fails():
    op = harness.llt_ops()[0]
    harness.reset_state(harness.discover_caches())
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(op.argv)) == 0
    assert harness.check_llt(op, buf.getvalue())[0]
    obj = json.loads(buf.getvalue())
    lam, mu, pairs = obj["entries"][-1]
    obj["entries"][-1] = [lam, mu, [[pairs[0][0], pairs[0][1] + 1]] + pairs[1:]]
    ok, _, detail, _ = harness.check_llt(op, json.dumps(obj) + "\n")
    assert not ok and "sha256" in detail


def test_changed_case_count_fails():
    op = harness.verify_op("words", ("--max-n", "8"))
    ok, _, detail, _ = harness.check_verify(op, "suite words: 15097 cases, ok (1.0s)\n")
    assert not ok and "pinned" in detail
    ok, _, _, _ = harness.check_verify(op, "suite words: 15098 cases, ok (1.0s)\n")
    assert ok
    ok, _, _, _ = harness.check_verify(op, "suite words: 15098 cases, 1 FAILED (1.0s)\n")
    assert not ok


def test_warm_gate_counts_misses_and_corruption():
    caches = harness.discover_caches()
    work = _workdir()
    try:
        cache_dir = os.path.join(work, "cache")
        os.makedirs(cache_dir)
        harness.fill_cache(cache_dir, [(2, 10)])
        result = harness.run_op(cli, SMALL_LLT, caches, cache_dir)
        assert result.ok and result.counts["fock.cache.misses"] == 0, result.detail
        # a missing file is recomputed: a miss, so the op fails
        os.remove(os.path.join(cache_dir, "llt_e2_n6_above.json"))
        result = harness.run_op(cli, SMALL_LLT, caches, cache_dir)
        assert not result.ok and result.counts["fock.cache.misses"] == 1
        # a corrupted entry is either served (the suite reports it) or
        # rejected and recomputed (a miss): a failed op both ways
        path = os.path.join(cache_dir, "llt_e2_n6_above.json")
        with open(path) as fh:
            obj = json.load(fh)
        col = next(iter(obj["columns"]))
        obj["columns"][col][col] = [[0, 7]]
        with open(path, "w") as fh:
            json.dump(obj, fh)
        result = harness.run_op(cli, SMALL_LLT, caches, cache_dir)
        assert not result.ok, "a corrupted cache entry passed the gate"
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_tracer_patches_every_alias_and_restores():
    originals = (partitions.dominance_key, laurent.LaurentPoly.__dict__["__add__"],
                 tableaux.graded_dimension)
    caches = harness.discover_caches()  # before the wrappers hide them
    trace = tracer.Tracer()
    trace.install()
    try:
        assert fock.dominance_key is partitions.dominance_key
        assert fock.dominance_key.__wrapped__ is originals[0]
        add = laurent.LaurentPoly.__dict__["__add__"]
        assert laurent.LaurentPoly.__dict__["__radd__"] is add
        assert add.__wrapped__ is originals[1]
        assert fock.graded_dimension is tableaux.graded_dimension
        assert fock.graded_dimension.__wrapped__ is originals[2]
        assert isinstance(laurent.LaurentPoly.__dict__["from_pairs"], classmethod)
        trace.begin_op("qdim")
        harness.reset_state(caches)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["qdim", "--shape", "2|1", "--e", "2"]) == 0
    finally:
        trace.uninstall()
    assert (partitions.dominance_key, laurent.LaurentPoly.__dict__["__add__"],
            tableaux.graded_dimension) == originals
    assert fock.graded_dimension is originals[2]
    totals = trace.totals()
    assert totals["cli.main"]["calls"] == 1
    assert totals["tableaux.graded_dimension"]["calls"] >= 2  # recursion is traced


def test_self_time_subtracts_direct_children():
    trace = tracer.Tracer()
    trace.names = ["outer", "inner"]
    trace.op_labels = ["op"]
    for nid, parent, start, end in ((0, -1, 0.0, 10.0), (1, 0, 2.0, 5.0),
                                    (1, 1, 3.0, 4.0), (1, 0, 6.0, 7.0)):
        trace.name_ids.append(nid)
        trace.parents.append(parent)
        trace.starts.append(start)
        trace.ends.append(end)
        trace.ops.append(0)
    totals = trace.totals()
    assert totals["outer"] == {"calls": 1, "self_s": 6.0}
    assert totals["inner"] == {"calls": 3, "self_s": 4.0}


def test_host_clock_samples_during_the_step():
    def busy(seconds):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            pass
        return time.perf_counter() - t0

    with harness.HostClock() as clock:
        elapsed = busy(0.3)
    # three samples before, three after, and some from the timer between
    assert len(clock.samples) > 6 + 2, clock.samples
    assert 0.5 * elapsed < clock.wall < elapsed  # sampling time is taken out
    assert clock.scaled > 0
    harness.SAMPLING = False
    try:
        with harness.HostClock() as clock:
            busy(0.2)
    finally:
        harness.SAMPLING = True
    assert len(clock.samples) == 6


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_the_package():
    work = _workdir()
    try:
        shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), work)
        shutil.copytree(harness.HERE, os.path.join(work, "benchmarks"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "llt-cold",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=work, capture_output=True, text=True, timeout=60,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception:
            failed += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
