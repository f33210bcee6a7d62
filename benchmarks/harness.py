"""Workloads, fresh-state handling and correctness checks of the bihooks
benchmark.

Every op is one command-line call, ``bihooks.cli.main(argv)`` with stdout
captured, made in this process after every cache of the package has been
emptied, so that it starts from the state of a fresh ``bihooks`` process.
The package is imported from the ``src`` directory of the checkout that
holds this file, never from an installed copy.
"""

import contextlib
import gc
import hashlib
import inspect
import io
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

with open(os.path.join(HERE, "golden.json")) as _fh:
    GOLDEN = json.load(_fh)


class MissingPackage(Exception):
    """The checkout holds no importable ``bihooks`` package under ``src``."""


def import_cli():
    """Import ``bihooks.cli`` from this checkout's ``src`` directory."""
    if not os.path.isfile(os.path.join(SRC, "bihooks", "__init__.py")):
        raise MissingPackage(f"no bihooks package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import bihooks.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise MissingPackage(f"bihooks.cli imported from {cli.__file__}, not {SRC}")
    return cli


def child_env(cache_dir: str) -> dict:
    """Environment for a fresh interpreter: this checkout's package first,
    and a private cache directory in place of ``~/.cache/bihooks``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["BIHOOKS_CACHE_DIR"] = cache_dir
    return env


# -- fresh state ---------------------------------------------------------

def package_namespaces() -> list:
    """The loaded ``bihooks.*`` modules and the classes defined in them:
    every namespace a package function can be looked up in."""
    out = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "bihooks" or name.startswith("bihooks.")):
            continue
        out.append(mod)
        out += [v for v in vars(mod).values()
                if isinstance(v, type) and v.__module__ == mod.__name__]
    return out


def discover_caches() -> dict:
    """Every ``functools.lru_cache`` in a package namespace, keyed by
    ``<module>.<qualname>`` without the ``bihooks.`` prefix.  Walking the
    namespaces, not naming the caches, means a cache added later is found
    and cleared too."""
    found = {}
    for owner in package_namespaces():
        for val in vars(owner).values():
            if isinstance(val, (staticmethod, classmethod)):
                val = val.__func__
            if callable(getattr(val, "cache_info", None)) and \
                    callable(getattr(val, "cache_clear", None)):
                name = f"{val.__module__}.{val.__qualname__}"
                found[name.removeprefix("bihooks.")] = val
    return dict(sorted(found.items()))


def memory_cache():
    """The canonical-basis in-memory cache, if the package still has one."""
    return getattr(sys.modules.get("bihooks.fock"), "_MEMORY", None)


def reset_state(caches: dict):
    """Empty every package cache and fail when any is left non-empty."""
    for cache in caches.values():
        cache.cache_clear()
    memory = memory_cache()
    if memory is not None:
        memory.clear()
    gc.collect()
    stale = [name for name, cache in caches.items() if cache.cache_info().currsize]
    if memory:
        stale.append("fock._MEMORY")
    if stale:
        raise RuntimeError(f"caches not empty at op start: {stale}")


def cache_counts(caches: dict) -> dict:
    out = {}
    for name, cache in caches.items():
        info = cache.cache_info()
        out[f"{name}.hits"] = info.hits
        out[f"{name}.misses"] = info.misses
    return out


# -- host speed ----------------------------------------------------------

# The host is shared: its speed drifts by more than half over minutes, and
# by a fifth within seconds.  So the speed of the host is sampled all
# through every timed step: a fixed kernel is timed three times just
# before the step, three times just after, and once every SAMPLE_INTERVAL
# seconds during it, from a SIGALRM handler in the process that does the
# work.  The step's wall time, less the time spent sampling, is scaled by
# REFERENCE_SECONDS over the kernel's mean time.  The kernel does not use
# bihooks, so a change to bihooks moves the scaled time and a change of
# host speed does not.
REFERENCE_SECONDS = 0.0015  # the kernel on a quiet host (x86-64 VM, Python 3.11)
SAMPLE_INTERVAL = 0.05
# off in traced runs, whose spans would otherwise time the sampling too
SAMPLING = True


def _reference_kernel():
    """Fixed pure-Python work that, like the package, allocates a heap of
    tuples in a dict and walks it."""
    d = {}
    for i in range(5_000):
        d[(i, i % 7)] = (i, str(i))
    total = 0
    for value in d.values():
        total += value[0]
    return total


def reference_seconds() -> float:
    """One timing of the reference kernel on this host now.  The garbage
    collector is off meanwhile: a full collection would time the size of
    the heap an op left behind, not the host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Context manager timing one step: ``wall`` is its wall time without
    the sampling, ``scaled`` the same time on the reference host."""

    _active = None  # the clock whose step is running, for the handler

    def __init__(self):
        self._sample = SAMPLING and HostClock._active is None

    @staticmethod
    def _tick(signum, frame):
        clock = HostClock._active
        if clock is None or clock._busy:
            return
        clock._busy = True
        t0 = time.perf_counter()
        clock.samples.append(reference_seconds())
        clock._spent += time.perf_counter() - t0
        clock._busy = False

    def __enter__(self):
        self.samples = [reference_seconds() for _ in range(3)]
        self._spent, self._busy = 0.0, False
        if self._sample:
            if signal.getsignal(signal.SIGALRM) is not HostClock._tick:
                signal.signal(signal.SIGALRM, HostClock._tick)
            HostClock._active = self
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        if self._sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            HostClock._active = None
        self.wall = end - self._t0 - self._spent
        self.samples += [reference_seconds() for _ in range(3)]
        self.scaled = self.wall * REFERENCE_SECONDS / statistics.mean(self.samples)
        return False


# -- ops and checks ------------------------------------------------------

@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    kind: str  # "llt" or "verify"


@dataclass
class OpResult:
    op: Op
    wall: float      # seconds of ``cli.main`` on this host
    seconds: float   # the same, scaled to the reference host
    ok: bool
    work: int = 0
    stdout_bytes: int = 0
    detail: str = ""
    counts: dict = field(default_factory=dict)


LLT_POINTS = ((2, 12), (2, 14), (3, 12), (3, 15), (4, 12))
CROSSCHECK_SUITES = (
    ("combinatorics", ()), ("crystal", ()), ("schur", ()), ("structure", ()),
    ("degrees", ()), ("words", ("--max-n", "8")),
)
_SUMMARY = re.compile(r"^suite (\S+): (\d+) cases, (ok|(\d+) FAILED) \(")


def llt_ops():
    return [Op(f"llt e={e} n={n}",
               ("llt", "--e", str(e), "--n", str(n), "--no-cache", "--format", "json"),
               "llt")
            for e, n in LLT_POINTS]


def verify_op(suite: str, extra=()) -> Op:
    label = " ".join(("verify", suite) + tuple(extra))
    return Op(label, ("verify", "--suite", suite) + tuple(extra), "verify")


def check_llt(op: Op, text: str) -> tuple[bool, int, str, dict]:
    digest = hashlib.sha256(text.encode()).hexdigest()
    want = GOLDEN["llt_cold_sha256"].get(op.label)
    obj = json.loads(text)
    entries = obj["entries"]
    columns = {col for _, col, _ in entries}
    coeffs = [c for _, _, pairs in entries for _, c in pairs]
    exps = [k for _, _, pairs in entries for k, _ in pairs]
    stats = {
        "fock.matrix.entries": len(entries),
        "fock.matrix.max_abs_coeff": max(map(abs, coeffs)),
        "fock.matrix.degree_span": max(exps) - min(exps),
    }
    if digest != want:
        return False, len(columns), f"stdout sha256 {digest} != golden {want}", stats
    return True, len(columns), "", stats


def check_verify(op: Op, text: str) -> tuple[bool, int, str, dict]:
    match = _SUMMARY.match(text)
    if match is None:
        return False, 0, f"no suite summary in {text[:80]!r}", {}
    suite, cases = match.group(1), int(match.group(2))
    failures = int(match.group(4) or 0)
    stats = {f"verify.{suite}.cases": cases, f"verify.{suite}.failures": failures}
    want = GOLDEN["verify_cases"].get(op.label)
    if failures:
        return False, cases, f"{failures} failed checks", stats
    if cases != want:
        return False, cases, f"{cases} cases, pinned {want}", stats
    return True, cases, "", stats


def snapshot(directory: str | None) -> dict:
    """Name -> (inode, size, mtime) of every file in a cache directory."""
    if directory is None:
        return {}
    out = {}
    for entry in os.scandir(directory):
        st = entry.stat()
        out[entry.name] = (st.st_ino, st.st_size, st.st_mtime_ns)
    return out


def run_op(cli, op: Op, caches: dict, cache_dir: str | None = None) -> OpResult:
    """One op from fresh state: time ``cli.main`` alone, then check it.

    With ``cache_dir`` the op must be answered from that warm cache: a
    cache file created or rewritten during the op is a miss, and a miss
    fails the op, because it would time compute instead of load."""
    reset_state(caches)
    argv = list(op.argv) + (["--cache-dir", cache_dir] if cache_dir else [])
    before = snapshot(cache_dir)
    buf = io.StringIO()
    rc, error = None, ""
    with HostClock() as clock:
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # an op that raises is a failed op, not a crash
            error = traceback.format_exc()
    counts = cache_counts(caches)
    text = buf.getvalue()
    result = OpResult(op, clock.wall, clock.scaled, False,
                      stdout_bytes=len(text.encode()), counts=counts)
    if error or rc != 0:
        result.detail = error or f"exit status {rc}"
        return result
    check = check_llt if op.kind == "llt" else check_verify
    try:
        result.ok, result.work, result.detail, stats = check(op, text)
    except (ValueError, KeyError, TypeError) as exc:
        result.detail = f"unreadable output: {exc!r}"
        return result
    counts.update(stats)
    after = snapshot(cache_dir)
    misses = sum(1 for name, st in after.items() if before.get(name) != st)
    counts["fock.cache.misses"] = misses
    if misses and result.ok:
        result.ok = False
        result.detail = f"{misses} cache files written: computed instead of loaded"
    return result


# -- set-up --------------------------------------------------------------

def fill_cache(cache_dir: str, levels=GOLDEN["llt_warm_fill"]):
    """Fill ``cache_dir`` with the canonical-basis matrices at ``e`` and
    every ``n <= top`` for each ``(e, top)`` in ``levels``, computed by the
    code under test.  The default levels are every matrix
    ``verify --suite llt`` reads at its default bounds."""
    from bihooks import fock
    for e, top in levels:
        for n in range(top + 1):
            fock.canonical_basis(n, e, cache_dir=cache_dir)


def run_child(args, cache_dir: str, timeout: float = 170.0) -> tuple[float, str]:
    """Run a fresh interpreter; return its wall time and its stdout."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable] + args, cwd=ROOT, env=child_env(cache_dir),
                          capture_output=True, text=True, timeout=timeout)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-400:]}")
    return wall, proc.stdout


# a fresh interpreter that times its own ``import bihooks.cli`` and the
# reference kernel around it, importing nothing the package might need
IMPORT_PROBE = inspect.getsource(_reference_kernel) + """
import gc, time
def kernel_seconds():
    gc.disable()
    t = time.perf_counter()
    _reference_kernel()
    t = time.perf_counter() - t
    gc.enable()
    return t
samples = [kernel_seconds() for _ in range(3)]
t = time.perf_counter()
import bihooks.cli
t = time.perf_counter() - t
samples += [kernel_seconds() for _ in range(3)]
print(t, sum(samples) / len(samples))
"""


def import_seconds(cache_dir: str, repeats: int) -> list:
    """Times of a cold ``import bihooks.cli`` in ``repeats`` fresh
    interpreters, each scaled to the reference host by the kernel timed in
    that interpreter."""
    out = []
    for _ in range(repeats):
        wall, host = map(float, run_child(["-c", IMPORT_PROBE], cache_dir)[1].split())
        out.append(wall * REFERENCE_SECONDS / host)
    return out
