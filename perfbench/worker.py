"""Run one workload in this (fresh) process and print one JSON line of results.

Started by run.py, never by hand.  The process sets up (imports rotcon from
./src, builds the inputs, loads the frozen references), runs one warm-up
pass, then repeats timed passes of the workload until --seconds have gone by
and at least MIN_PASSES are done, and finally checks every output.  The
warm-up pass pays for lazy imports and for the allocator growing to the
workload's array sizes (about 20% of the first 8-bit NUQAM ascent); users pay it
once per process, so it is checked but not timed.  With --setup-only it reports the
set-up time and exits.  With --trace 1 every pass runs twice, untraced and
then traced, and the per-layer metrics come from the traced copies.

Every pass makes the same list of operations, each drawn from a pool of
inputs that cost about the same, and every operation takes at most about a
second, so a run times each position of that list many times.  `wall_s` is
the sum over the positions of the median time at that position (README.md
says why the median and not the minimum).

Set-up time is measured from --spawned-at, a time.monotonic() reading taken
by the parent just before it started this process; CLOCK_MONOTONIC is
system-wide on Linux, so the interpreter's own start-up is included.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3


def openblas_info() -> dict:
    """Version and thread count of the OpenBLAS that numpy loaded, if any."""
    import numpy as np

    info = {"version": None, "threads": None}
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    if "openblas" in str(blas.get("name", "")):
        info["version"] = blas.get("version")
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment() -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_info(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


def run_ops(ops) -> tuple[list[float], list]:
    """Time each op's call; collect its output untimed.  Exceptions are recorded."""
    times = []
    outs = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            value = op.call()
        except Exception:
            times.append(time.perf_counter() - t0)
            outs.append((op, None, traceback.format_exc()))
            continue
        times.append(time.perf_counter() - t0)
        try:
            outs.append((op, op.collect(value), None))
        except Exception:
            outs.append((op, None, traceback.format_exc()))
    return times, outs


def median_pass(times: list[list[float]]) -> float:
    """Sum over op positions of the median time at that position."""
    return sum(statistics.median(column) for column in zip(*times))


def check_all(outs) -> list[str]:
    failures = []
    for op, value, error in outs:
        if error is None:
            try:
                error = op.check(value)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            failures.append(f"{op.key}: {error}")
    return failures


def timed_passes(wl, seconds: float, trace: bool) -> dict:
    import tracer

    tr = tracer.Tracer() if trace else None
    plain, traced = [], []
    _, outs = run_ops(wl.ops(0))
    bits = 0
    start = time.perf_counter()
    i = 1
    while len(plain) < MIN_PASSES or time.perf_counter() - start < seconds:
        ops = wl.ops(i)
        times, o = run_ops(ops)
        plain.append(times)
        outs += o
        bits += sum(wl.bits(value) for _, value, error in o if error is None)
        if tr is not None:
            tr.install()
            try:
                with tr.span("pass"):
                    times, o = run_ops(ops)
            finally:
                tr.uninstall()
            traced.append(times)
            outs += o
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = check_all(outs)
    res = {
        "passes": len(plain),
        "op_s": plain,
        "wall_s": median_pass(plain),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(outs),
        "failed": len(failures),
        "failures": failures,
        "bits_per_s": bits / len(plain) / median_pass(plain),
    }
    if tr is not None:
        layers = tracer.layer_metrics(tr.spans, len(traced))
        layers["trace.overhead_s"] = median_pass(traced) - res["wall_s"]
        layers["trace.overhead_frac"] = layers["trace.overhead_s"] / res["wall_s"]
        res["traced_op_s"] = traced
        res["per_layer"] = layers
    return res


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=["full", "tiny"], required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import rotcon
    import rotcon.cli  # noqa: F401  (the CLI is a traced layer on every workload)

    if not Path(rotcon.__file__).resolve().is_relative_to(src.resolve()):
        print(f"rotcon was imported from {rotcon.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    with open(HERE / "refs.json") as fh:
        refs = json.load(fh)[args.size].get(args.workload)
    # rotcon code writes nothing to stdout here, but keep the result line alone
    out, sys.stdout = sys.stdout, sys.stderr
    with tempfile.TemporaryDirectory(dir=Path.cwd(), prefix=".perfbench-") as tmp:
        wl = workloads.WORKLOADS[args.workload](rotcon, args.size, refs, args.seed, Path(tmp))
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            res = {"setup_s": setup_s}
        else:
            res = timed_passes(wl, args.seconds, bool(args.trace))
            res["setup_s"] = setup_s
            res["inputs"] = workloads.SIZES[args.workload][args.size]
            res["env"] = environment()
    print(json.dumps(res), file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
