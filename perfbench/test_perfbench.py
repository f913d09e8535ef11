"""Self-tests of the benchmark at its tiny size (16-QAM 4D, 4-QAM 2D and the like).

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    record, res = result("--workload", workload, "--seed", "3", "--seconds", "0.2",
                         "--trace", "0", "--size", "tiny")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, record["failures"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]] == {"value": pytest.approx(record[m["name"]]),
                                             "unit": m["unit"]}
        assert record[m["name"]] > 0
    assert len(record["setup_s_samples"]) == 5
    assert record["env"]["nproc"] >= 1 and record["inputs"]


def test_all_runs_every_workload_in_one_command():
    proc = bench("--workload", "all", "--seconds", "0.1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert res["correct"]
    names = [w["name"] for w in SPEC["workloads"]]
    assert set(res["metrics"]) == {f"{w}.{m['name']}" for w in names for m in SPEC["end_to_end"]}
    for w in names:
        assert any(line.startswith(f"{w} failed_frac 0 ratio") for line in lines)
    assert any(line.startswith("ber_link ber_mbit_per_s ") for line in lines)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_per_layer_metric(workload):
    record, res = result("--workload", workload, "--seed", "0", "--seconds", "0.2",
                         "--trace", "1", "--size", "tiny")
    assert res["correct"], record["failures"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_trace_sees_every_multiset_rebuild_of_a_report():
    # compute_report rebuilds the pair-difference multiset once per metric and
    # radius plus once for the full cutoff rate: 3 * 2 radii + 1 at the commit
    # that defined the benchmark.  Fewer spans here means a binding was missed.
    _, res = result("--workload", "rotated_report", "--seed", "0", "--seconds", "0.2",
                    "--trace", "1", "--size", "tiny")
    assert res["metrics"]["metrics.difference_multiset.calls"]["value"] == 7
    assert res["metrics"]["cli.main.calls"]["value"] == 1


def test_tracer_patches_every_binding_and_restores_them():
    import rotcon
    import rotcon.cli
    import rotcon.optimize
    import scipy.linalg
    import tracer

    before = (rotcon.optimize.difference_multiset, rotcon.cutoff_rate, scipy.linalg.expm,
              rotcon.Constellation.__post_init__)
    tr = tracer.Tracer()
    tr.install()
    try:
        x = rotcon.normalize_energy(rotcon.make_nuqam(rotcon.NuqamParams((1.0, 3.0))), 4.0)
        rotcon.optimize.optimize_nuqam(4, rotcon.ChannelSpec.from_ebn0_db(8.0), max_iters=2)
        rotcon.optimize_rotation_full(x, rotcon.ChannelSpec.from_ebn0_db(8.0), max_iters=3)
    finally:
        tr.uninstall()
    after = (rotcon.optimize.difference_multiset, rotcon.cutoff_rate, scipy.linalg.expm,
             rotcon.Constellation.__post_init__)
    assert after == before
    names = {s[0] for s in tr.spans}
    # the lazy import inside _nuqam_objective and the by-name import in optimize
    assert {"metrics.cutoff_rate", "metrics.difference_multiset", "liegroup.expm",
            "constellation.Constellation", "liegroup.geodesic_descent"} <= names
    layers = tracer.layer_metrics(tr.spans, 1)
    assert layers["optimize.optimize_nuqam.objective_evals"] > 0
    assert 0 < layers["liegroup.geodesic_descent.accept_ratio"] <= 1


def test_grid_evaluations_are_counted_from_the_calls_made():
    import rotcon
    import tracer

    x = rotcon.normalize_energy(rotcon.make_qam_product(4, 1), 2.0)
    tr = tracer.Tracer()
    tr.install()
    try:
        res = rotcon.grid_search_t(x, rotcon.ChannelSpec.from_ebn0_db(6.0), grid_step=0.05,
                                   keep_profile=True)
    finally:
        tr.uninstall()
    layers = tracer.layer_metrics(tr.spans, 1)
    assert layers["optimize.grid_search_t.t_evals"] == len(res.profile)


def test_self_time_excludes_children():
    import tracer

    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None], ["c", 2.0, 3.0, 1, None]]
    stats = tracer.span_stats(spans)
    assert stats["a"]["self_s"] == 7.0 and stats["b"]["self_s"] == 2.0
    assert stats["c"]["self_s"] == 1.0


def test_ber_replay_matches_the_library_on_a_new_seed():
    import oracle
    import rotcon

    x = rotcon.normalize_energy(rotcon.make_qam_product(16, 1), 4.0)
    ch = rotcon.ChannelSpec.from_ebn0_db(6.0)
    (row,) = rotcon.ber_monte_carlo(x, [ch], min_bits=20000, seed=12345).rows
    replay = oracle.ber_replay(x.points, x.labels, ch.N0, 20000, 12345)
    assert replay == {"bits": row.bits_simulated, "bit_errors": row.bit_errors,
                      "symbols": row.symbols_simulated, "symbol_errors": row.symbol_errors}


def test_wrong_output_counts_as_failed():
    import rotcon
    import workloads

    wl = workloads.FamilySweep(rotcon, "tiny", {"qam4x1@2": {"t_opt": 0.0, "objective": 1.0}},
                               0, None)
    op = wl._op("qam4x1", 2)
    assert op.check(op.collect(op.call())) is not None


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "ber_link", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_wall_time_sums_the_median_of_each_position():
    import worker

    passes = [[1.0, 10.0], [3.0, 2.0], [2.0, 4.0]]
    assert worker.median_pass(passes) == 2.0 + 4.0
