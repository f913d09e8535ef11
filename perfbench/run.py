"""rotcon benchmark: run one workload (or all four) and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload family_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --workload ber_link --trace 1   # per-layer metrics
    python3 perfbench/run.py --workload all --size tiny --seconds 1   # self-test size

Each workload runs in fresh processes, one at a time, never two at once:
SETUP_SAMPLES processes that only set up (untraced runs only), then one that
sets up, runs the timed passes and checks every output.  The library is imported from ./src.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; with --trace 0 the metrics are
the `end_to_end` metrics of BENCHMARK.json, with --trace 1 its `per_layer`
metrics.  The line before it is the full record of the run, including the
environment.  Exits with 2, printing no result, when ./src/rotcon is absent
or a worker process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("family_sweep", "rotated_report", "small_optimizers", "ber_link")
# Set-up-only processes per run; setup_s is the median of these and the
# measuring process.  One process's set-up time varies by 25-35% within a
# run on a shared 2-core VM; over ten runs the median of five had the
# smaller quartile spread in 11 of 12 workload sets (see README.md).
SETUP_SAMPLES = 4
TIME_LIMIT_S = 170.0  # whole run, all processes
# One BLAS thread per process: on a shared 2-core machine, two threads made
# the 64-QAM BER decode 23% faster but widened the range of its times from
# 3% to 15%.  Process-level parallelism, if the library adds it, stays
# within nproc.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunError(Exception):
    pass


def spawn(root: Path, args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("time limit reached before the workload could start")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, env={**os.environ, **THREAD_ENV})
    except subprocess.TimeoutExpired as e:
        raise RunError(f"worker exceeded the time limit: {' '.join(args)}") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def source_record(root: Path) -> dict:
    """Git commit when the root is a checkout, and a digest of the library source."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "rotcon").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def run_workload(root: Path, name: str, args, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(args.seed), "--size", args.size]
    setups = []
    if not args.trace:
        setups = [spawn(root, common + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
    res = spawn(root, common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                deadline)
    setups.append(res["setup_s"])
    res["setup_s_samples"] = setups
    res["setup_s"] = statistics.median(setups)
    res["failed_frac"] = res["failed"] / res["attempted"]
    if name == "ber_link":
        res["ber_mbit_per_s"] = res["bits_per_s"] / 1e6
    return res


def metric_values(res: dict, trace: bool) -> dict:
    return res["per_layer"] if trace else {k: res[k] for k in ("wall_s", "setup_s", "peak_rss_mb")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="how long the timed passes of each workload run")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny: small inputs for the benchmark's own tests")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rotcon" / "__init__.py").is_file():
        print(f"error: no rotcon source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)

    source = source_record(root)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            res = run_workload(root, name, args, deadline)
        except RunError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        for failure in res["failures"]:
            print(f"FAILED {name} {failure}", file=sys.stderr)
        values = metric_values(res, bool(args.trace))
        extra = [("failed_frac", "ratio")] + (
            [("ber_mbit_per_s", "Mbit/s")] if "ber_mbit_per_s" in res else [])
        for m in declared:
            print(f"{name} {m['name']} {values[m['name']]:.6g} {m['unit']}")
        for key, unit in extra:
            print(f"{name} {key} {res[key]:.6g} {unit}")
        prefix = f"{name}." if args.workload == "all" else ""
        for m in declared:
            summary["metrics"][prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        summary["correct"] &= res["failed"] == 0
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "size": args.size, **source, **res}
        print(json.dumps({"record": record}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
