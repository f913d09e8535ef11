"""End-to-end tests of the command-line interface (in-process)."""

import csv
import json
import math
import shlex

import numpy as np
import pytest

from rotcon import (ChannelSpec, Constellation, grid_search_t, make_qam_product,
                    normalize_energy, rotation_at, skew_family)
from rotcon.cli import main
from rotcon.constellation import save
from rotcon.liegroup import save_rotation_csv


class TestFamilyCommand:
    def test_csv_matches_library(self, tmp_path):
        out = tmp_path / "q.csv"
        assert main(["family", "-k", "2", "--t-deg", "60", "--out", str(out)]) == 0
        got = np.loadtxt(out, delimiter=",")
        want = rotation_at(skew_family(2), math.radians(60.0)).entries
        assert np.array_equal(got, want)

    def test_json_metadata(self, tmp_path, capsys):
        assert main(["family", "-k", "1", "--t", "0.5", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k"] == 1
        assert doc["t_deg"] == pytest.approx(math.degrees(0.5))
        assert len(doc["matrix"]) == 2
        assert "provenance" in doc

    def test_missing_parameter_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["family", "-k", "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_bad_k_is_input_error(self):
        assert main(["family", "-k", "15", "--t", "0.1"]) == 3


class TestGenCommand:
    def test_csv_roundtrip(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["gen", "--qam", "16", "--no-normalize", "--out", str(out)]) == 0
        pts = np.loadtxt(out, delimiter=",")
        want = make_qam_product(16, 1).points
        assert np.array_equal(pts, want)

    def test_normalized_by_default(self, tmp_path):
        out = tmp_path / "x.json"
        assert main(["gen", "--qam", "16", "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        energy = np.mean(np.sum(np.array(doc["points"]) ** 2, axis=1))
        assert energy == pytest.approx(4.0, rel=1e-12)

    def test_nuqam_source(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["gen", "--nuqam", "1,4", "--no-normalize", "--out", str(out)]) == 0
        assert np.loadtxt(out, delimiter=",").shape == (16, 2)

    def test_rotation_by_family_parameter(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["gen", "--qam", "4", "--half-dims", "2", "--rotate-t-deg", "30",
                     "--out", str(out)]) == 0
        pts = np.loadtxt(out, delimiter=",")
        x = normalize_energy(make_qam_product(4, 2), 4.0)
        want = x.points @ rotation_at(skew_family(2), math.radians(30.0)).entries.T
        assert np.allclose(pts, want, atol=1e-15)

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["gen", "--file", str(tmp_path / "nope.json")]) == 3

    @pytest.mark.parametrize("doc", [
        {"n": 2},
        {"points": [[1.0, 0.0], [-1.0, 0.0]]},
        {"n": 2, "points": [[1.0, 0.0], [-1.0, 0.0]], "labels": [0, 1]},
        {"n": 2, "points": [[math.nan, 0.0], [-1.0, 0.0]]},  # json writes and reads NaN
    ], ids=["no-points", "no-n", "integer-labels", "nan-point"])
    def test_malformed_file_is_input_error(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["metrics", "--file", str(path), "--ebn0-db", "8"]) == 3
        assert capsys.readouterr().out == ""

    def test_rotation_of_another_dimension_is_input_error(self, tmp_path, capsys):
        qpath = tmp_path / "q2.csv"
        save_rotation_csv(rotation_at(skew_family(1), 0.3), qpath)
        argv = ["gen", "--qam", "4", "--half-dims", "2", "--rotate-csv", str(qpath)]
        assert main(argv) == 3
        assert capsys.readouterr().out == ""

    def test_bad_nuqam_is_input_error(self):
        assert main(["gen", "--nuqam", "3,1"]) == 3

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen"])  # no constellation source
        assert exc.value.code == 2


class TestMetricsCommand:
    def test_csv_table(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["metrics", "--qam", "4", "--half-dims", "2", "--rotate-t-deg", "45",
                     "--ebn0-db", "10", "--radius", "2", "--radius", "inf",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["radius"] for r in rows] == ["2.0", "inf"]
        assert int(rows[0]["diversity_order"]) == 4
        assert int(rows[1]["diversity_order"]) == 3

    def test_json_report(self, capsys):
        assert main(["metrics", "--qam", "4", "--ebn0-db", "8",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["q_bits"] == 2
        assert 0.0 <= doc["cutoff_rate"] <= 2.0
        assert doc["provenance"]["seed"] is None  # metrics takes no --seed

    def test_single_value_commands_reject_an_ebn0_list(self, capsys):
        # metrics, opt-rotation and opt-nuqam evaluate one Eb/N0; a list is a
        # usage error, not a silent use of its first value
        for argv in (["metrics", "--qam", "4"], ["opt-rotation", "--qam", "4"],
                     ["opt-nuqam", "--q-bits", "4"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--ebn0-db", "8,12"])
            assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv, what", [
        (["--qam", "64", "--half-dims", "4"], "16777216 points in n=8 dimensions"),
        (["--qam", "4", "--half-dims", "8"], "product pair differences of m=65536"),
    ], ids=["64qam-8d-points", "4qam-16d-pairs"])
    def test_sizes_over_the_byte_budget_exit_4(self, argv, what, capsys):
        # refused before allocating: 2.4 GB of points and labels, 5.9 GB of pairs
        assert main(["metrics", *argv, "--ebn0-db", "10"]) == 4
        out = capsys.readouterr()
        assert out.out == "" and len(out.err.splitlines()) == 1 and what in out.err

    @pytest.mark.parametrize("error", [MemoryError(), MemoryError(
        "Unable to allocate 481. MiB for an array with shape (15752960, 4) and data type float64")],
        ids=["bare", "numpy-message"])
    def test_out_of_memory_exits_4(self, error, capsys, monkeypatch):
        # an input the byte checks admit that still exhausts memory: one line, no traceback
        def exhaust(*args, **kwargs):
            raise error
        monkeypatch.setattr("rotcon.cli.compute_report", exhaust)
        assert main(["metrics", "--qam", "4", "--ebn0-db", "10"]) == 4
        out = capsys.readouterr()
        assert out.out == "" and len(out.err.splitlines()) == 1
        assert out.err.startswith("numerical failure: ")


class TestOptRotationCommand:
    def test_grid_mode(self, tmp_path, capsys):
        out = tmp_path / "q.csv"
        profile = tmp_path / "profile.csv"
        assert main(["opt-rotation", "--qam", "4", "--ebn0-db", "8",
                     "--grid-step-deg", "1.0", "--out", str(out),
                     "--profile", str(profile)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.0 <= doc["t_opt_deg"] <= 90.0
        q = np.loadtxt(out, delimiter=",")
        assert np.allclose(q @ q.T, np.eye(2), atol=1e-12)
        rows = profile.read_text().splitlines()
        assert rows[0] == "t_deg,R_bits"
        # 0..90 degrees at 1-degree steps plus header; the endpoint may fall
        # either side of pi/2 by one ulp
        assert len(rows) in (91, 92)

    def test_grid_mode_needs_a_power_of_two_dimension(self, capsys):
        argv = ["opt-rotation", "--qam", "4", "--half-dims", "3", "--ebn0-db", "8"]
        assert main(argv) == 3
        assert main(argv + ["--mode", "grid"]) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["opt-rotation", "sweep"])
    def test_grid_step_outside_range_is_usage_error(self, command, capsys):
        for step in ("0", "-1", "45.5", "nan", "one"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--qam", "4", "--ebn0-db", "8", "--grid-step-deg", step])
            assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert main([command, "--qam", "4", "--ebn0-db", "8", "--grid-step-deg", "45"]) == 0

    def test_default_grid_step_is_the_papers(self, capsys):
        # the default step is 1e-3 rad exactly, so the optimum is the library's
        assert main(["opt-rotation", "--qam", "4", "--half-dims", "2", "--ebn0-db", "8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        x = normalize_energy(make_qam_product(4, 2), 4.0)
        res = grid_search_t(x, ChannelSpec.from_ebn0_db(8.0), grid_step=1e-3)
        assert doc["t_opt_deg"] == math.degrees(res.t_opt)
        assert doc["R_bits"] == res.objective
        assert doc["grid_step_deg"] == math.degrees(1e-3)

    def test_manifold_mode(self, capsys):
        assert main(["opt-rotation", "--qam", "4", "--ebn0-db", "8",
                     "--mode", "manifold"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "manifold"
        assert doc["converged"] and doc["reason"] == "gradient-tolerance"
        assert "log_rotation" in doc

    @pytest.mark.parametrize("option", [["--profile", "p.csv"], ["--grid-step-deg", "1"],
                                        ["--grid-step-deg", str(math.degrees(1e-3))]],
                             ids=["profile", "step", "default-step"])
    def test_manifold_mode_refuses_grid_options(self, option, tmp_path, monkeypatch, capsys):
        # the descent reads neither; an explicit step is refused even at the default
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["opt-rotation", "--qam", "4", "--ebn0-db", "8", "--out", "q.csv",
                  "--mode", "manifold", *option])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []


class TestProvenance:
    def test_records_the_argv_main_parsed(self, tmp_path, capsys):
        # in process, not the host's sys.argv; quoted so that a shell gives it back
        argv = ["metrics", "--qam", "4", "--ebn0-db", "8", "--format", "json",
                "--out", str(tmp_path / "a b.json")]
        assert main(argv) == 0
        command = json.loads((tmp_path / "a b.json").read_text())["provenance"]["command"]
        assert shlex.split(command) == ["rotcon", *argv]

    def test_reads_sys_argv_without_an_argv(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["/bin/rotcon", "family", "-k", "1", "--t", "0.5",
                                         "--format", "json"])
        assert main() == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["provenance"]["command"] == "rotcon family -k 1 --t 0.5 --format json"


class TestOptNuqamCommand:
    def test_json_output(self, capsys):
        assert main(["opt-nuqam", "--q-bits", "4", "--ebn0-db", "8", "--seed", "7"]) == 0
        doc = json.loads(capsys.readouterr().out)
        a = doc["alpha"]
        assert len(a) == 2 and a[0] < a[1]
        assert doc["converged"]
        assert doc["reason"] == "gradient-tolerance"
        assert doc["provenance"]["seed"] == 7


class TestSweepCommand:
    def test_columns_and_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--qam", "4", "--half-dims", "2",
                     "--ebn0-db", "6,8", "--grid-step-deg", "1.0",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["ebn0_db"] for r in rows] == ["6.0", "8.0"]
        assert all(0.0 <= float(r["t_opt_deg"]) <= 90.0 for r in rows)

    def test_compare_column(self, tmp_path):
        qpath = tmp_path / "q.csv"
        save_rotation_csv(rotation_at(skew_family(2), 0.3), qpath)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--qam", "4", "--half-dims", "2", "--ebn0-db", "8",
                     "--grid-step-deg", "1.0", "--compare", str(qpath),
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert float(rows[0]["delta_R_bits"]) >= -1e-12

    def test_compare_dimension_mismatch_is_input_error(self, tmp_path, capsys):
        qpath = tmp_path / "q2.csv"
        save_rotation_csv(rotation_at(skew_family(1), 0.3), qpath)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--qam", "4", "--half-dims", "2", "--ebn0-db", "6,8",
                "--grid-step-deg", "1.0", "--compare", str(qpath)]
        assert main(argv + ["--out", str(out)]) == 3
        assert not out.exists()
        assert main(argv) == 3
        assert capsys.readouterr().out == ""

    def test_unreadable_compare_file_is_input_error(self, tmp_path, capsys):
        # the same files make --rotate-csv exit 3 too
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,4\n")  # not a rotation
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--qam", "4", "--half-dims", "2", "--ebn0-db", "8",
                "--grid-step-deg", "1.0"]
        for path in (bad, tmp_path / "missing.csv"):
            assert main(argv + ["--compare", str(path), "--out", str(out)]) == 3
            assert not out.exists()
            assert main(argv + ["--compare", str(path)]) == 3
            assert main(argv + ["--rotate-csv", str(path)]) == 3
        assert capsys.readouterr().out == ""

    def test_non_power_of_two_dimension_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--qam", "4", "--half-dims", "3", "--ebn0-db", "8"]
        assert main(argv + ["--out", str(out)]) == 3
        assert not out.exists()
        assert main(argv) == 3
        assert capsys.readouterr().out == ""


class TestBerCommand:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "ber.csv"
        assert main(["ber", "--qam", "4", "--ebn0-db", "10,14",
                     "--min-bits", "10000", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 2
        assert all(int(r["bits"]) >= 10000 for r in rows)

    def test_csv_to_stdout(self, capsys):
        assert main(["ber", "--qam", "4", "--ebn0-db", "10", "--min-bits", "10000"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "ebn0_db,bits,bit_errors,ber,ber_lo,ber_hi,symbol_errors,ser,seed"


class TestOptionsAndValues:
    @pytest.mark.parametrize("argv", [
        # --format on the commands that write one format
        ["opt-rotation", "--qam", "4", "--ebn0-db", "8", "--format", "json"],
        ["opt-nuqam", "--q-bits", "4", "--ebn0-db", "8", "--format", "json"],
        ["sweep", "--qam", "4", "--half-dims", "2", "--ebn0-db", "8", "--format", "json"],
        ["ber", "--qam", "4", "--ebn0-db", "10", "--format", "csv"],
        # --seed on the commands that draw no random numbers
        ["gen", "--qam", "4", "--seed", "1"],
        ["family", "-k", "2", "--t", "0.1", "--seed", "1"],
        ["metrics", "--qam", "4", "--ebn0-db", "8", "--seed", "1"],
        ["opt-rotation", "--qam", "4", "--ebn0-db", "8", "--seed", "1"],
        ["sweep", "--qam", "4", "--half-dims", "2", "--ebn0-db", "8", "--seed", "1"],
    ])
    def test_option_the_command_does_not_read_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--qam", "4", "--half-dims", "2", "--ebn0-db", "8,x"],
        ["ber", "--qam", "4", "--ebn0-db", "10,nan", "--min-bits", "10000"],
        ["metrics", "--qam", "4", "--ebn0-db", "inf"],
        ["opt-nuqam", "--q-bits", "4", "--ebn0-db=-inf"],
        ["metrics", "--qam", "4", "--ebn0-db", "8", "--radius", "foo"],
        ["metrics", "--qam", "4", "--ebn0-db", "8", "--radius", "-1"],
        ["metrics", "--qam", "4", "--ebn0-db", "8", "--radius", "0"],
        ["metrics", "--qam", "4", "--ebn0-db", "8", "--radius", "nan"],
        ["family", "-k", "2", "--t", "0.1", "--t-deg", "30"],
        ["family", "-k", "2", "--t", "nan"],
        ["gen", "--qam", "4", "--half-dims", "2", "--rotate-t-deg", "inf"],
        ["ber", "--qam", "4", "--ebn0-db", "10", "--min-bits", "0"],
        ["ber", "--qam", "4", "--ebn0-db", "10", "--min-bits", "9999"],
        ["ber", "--qam", "4", "--ebn0-db", "10", "--min-bits", "1e5"],
        ["opt-nuqam", "--q-bits", "4", "--ebn0-db", "8", "--restarts", "-3"],
        ["opt-nuqam", "--q-bits", "4", "--ebn0-db", "8", "--restarts", "x"],
        ["opt-nuqam", "--q-bits", "4", "--ebn0-db", "8", "--restarts", "1", "--seed", "-1"],
        ["opt-nuqam", "--q-bits", "4", "--ebn0-db", "8", "--seed", "-1"],
        ["ber", "--qam", "4", "--ebn0-db", "10", "--min-bits", "10000", "--seed", "-1"],
        ["gen", "--qam", "5"],
        ["gen", "--qam", "4", "--half-dims", "0"],
    ])
    def test_bad_value_is_usage_error_before_output(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestFileRoundtrip:
    def test_unlabeled_json_on_stdout_feeds_metrics(self, tmp_path, capsys):
        src = tmp_path / "x.json"
        save(Constellation(np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [-1.0, 0.0]])), src)
        assert main(["gen", "--file", str(src), "--no-normalize", "--format", "json"]) == 0
        piped = tmp_path / "piped.json"
        piped.write_text(capsys.readouterr().out)
        assert piped.read_text() == src.read_text() + "\n"
        assert main(["metrics", "--file", str(piped), "--ebn0-db", "8"]) == 0

    def test_saved_constellation_feeds_metrics(self, tmp_path):
        x = normalize_energy(make_qam_product(16, 1), 4.0)
        path = tmp_path / "x.json"
        save(x, path)
        out = tmp_path / "m.csv"
        assert main(["metrics", "--file", str(path), "--no-normalize",
                     "--ebn0-db", "8", "--out", str(out)]) == 0
        assert "local_cutoff_rate" in out.read_text().splitlines()[0]

    def test_raw_pairs_over_the_byte_budget_exit_4(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "x.json"
        save(Constellation(np.random.default_rng(0).normal(size=(16, 2))), path)
        monkeypatch.setattr("rotcon.metrics._RAW_PAIR_BYTES", 1000)
        assert main(["metrics", "--file", str(path), "--ebn0-db", "8"]) == 4
        assert "m=16" in capsys.readouterr().err

    def test_rotated_file_feeds_metrics_and_ber(self, tmp_path, capsys, monkeypatch):
        # its frame comes back with it, so neither command meets the 16.7 M
        # raw pairs or brute-force decoding; the budget holds the 50,624
        # product rows (2 MB) and the points, not the raw pairs (1.2 GB)
        path = tmp_path / "r64.json"
        assert main(["gen", "--qam", "64", "--half-dims", "2", "--rotate-t-deg", "30",
                     "--format", "json", "--out", str(path)]) == 0
        monkeypatch.setattr("rotcon.metrics._RAW_PAIR_BYTES", 1 << 24)
        reports = []
        for source in (["--file", str(path), "--no-normalize"],
                       ["--qam", "64", "--half-dims", "2", "--rotate-t-deg", "30"]):
            assert main(["metrics", *source, "--ebn0-db", "10", "--format", "json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            del doc["provenance"]
            reports.append(doc)
        assert reports[0] == reports[1]

        def refuse(*args):
            raise AssertionError("brute force on a loaded rotated product")
        monkeypatch.setattr("rotcon.channel._brute_force", refuse)
        assert main(["ber", "--file", str(path), "--ebn0-db", "18", "--min-bits", "10000"]) == 0

    def test_frame_off_the_points_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "r16.json"
        assert main(["gen", "--qam", "16", "--rotate-t-deg", "30",
                     "--format", "json", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["frame"]["levels"][1][2] *= 1 + 1e-9
        path.write_text(json.dumps(doc))
        assert main(["metrics", "--file", str(path), "--ebn0-db", "10"]) == 3
        assert "gives back the points" in capsys.readouterr().err
