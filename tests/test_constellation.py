"""Tests for constellation construction, labeling, normalization, and I/O."""

import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotcon import (
    ChannelSpec,
    Constellation,
    NuqamParams,
    make_nuqam,
    make_qam_product,
    ml_decode,
    normalize_energy,
    rotate,
    rotation_at,
    skew_family,
)
from rotcon.channel import FadeVector
from rotcon.constellation import ProductFrame, load, qam_levels, save, save_points_csv
from rotcon.metrics import compute_report


class TestReadOnlyPoints:
    def test_points_are_locked_and_the_input_is_not(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        x = Constellation(pts)
        with pytest.raises(ValueError):
            x.points[0, 0] = 0.0
        pts[0, 0] = 5.0  # the caller's array stays writeable, and is not shared
        assert x.points[0, 0] == 0.0


class TestQamLevels:
    def test_levels(self):
        assert qam_levels(4).tolist() == [-1.0, 1.0]
        assert qam_levels(16).tolist() == [-3.0, -1.0, 1.0, 3.0]
        assert qam_levels(64).tolist() == [-7, -5, -3, -1, 1, 3, 5, 7]

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            qam_levels(32)


class TestMakeQamProduct:
    @pytest.mark.parametrize(
        "M,half_dims,m,n", [(4, 1, 4, 2), (16, 1, 16, 2), (4, 2, 16, 4), (64, 2, 4096, 4)]
    )
    def test_shape_and_size(self, M, half_dims, m, n):
        x = make_qam_product(M, half_dims)
        assert (x.m, x.n, x.q_bits) == (m, n, int(math.log2(m)))

    def test_points_are_odd_integer_grid(self):
        x = make_qam_product(16, 1)
        expected = {p for p in itertools.product([-3, -1, 1, 3], repeat=2)}
        assert {tuple(p) for p in x.points} == expected

    def test_labels_unique_and_sized(self):
        x = make_qam_product(16, 1)
        assert len(set(x.labels)) == 16
        assert all(len(b) == 4 for b in x.labels)

    def test_gray_adjacency_along_axes(self):
        # stepping one level along a single axis flips exactly one bit
        x = make_qam_product(16, 1)
        by_point = {tuple(p): lab for p, lab in zip(x.points, x.labels)}
        for a, b in [(-3, -1), (-1, 1), (1, 3)]:
            for other in (-3, -1, 1, 3):
                for pa, pb in [((a, other), (b, other)), ((other, a), (other, b))]:
                    diff = sum(
                        c1 != c2 for c1, c2 in zip(by_point[pa], by_point[pb])
                    )
                    assert diff == 1

    def test_energy_of_known_grids(self):
        assert make_qam_product(4, 2).energy == pytest.approx(4.0, abs=1e-12)
        assert make_qam_product(16, 1).energy == pytest.approx(10.0, abs=1e-12)

    def test_bad_half_dims(self):
        with pytest.raises(ValueError):
            make_qam_product(4, 0)


class TestMakeNuqam:
    def test_point_set_for_one_four(self):
        x = make_nuqam(NuqamParams((1.0, 4.0)))
        expected = {(sx * a, sy * b) for a in (1, 4) for b in (1, 4)
                    for sx in (-1, 1) for sy in (-1, 1)}
        assert {tuple(p) for p in x.points} == expected

    def test_uniform_levels_recover_qam(self):
        x = make_nuqam(NuqamParams((1.0, 3.0)))
        y = make_qam_product(16, 1)
        assert {tuple(p) for p in x.points} == {tuple(p) for p in y.points}

    def test_params_validation(self):
        with pytest.raises(ValueError):
            NuqamParams((0.0, 1.0))
        with pytest.raises(ValueError):
            NuqamParams((2.0, 1.0))
        with pytest.raises(ValueError):
            NuqamParams(())


class TestGeneratedFrames:
    @pytest.mark.parametrize("x", [make_qam_product(16, 2), make_qam_product(64, 1),
                                   make_nuqam(NuqamParams((0.3, 1.0, 1.4, 2.5)))])
    def test_generated_frame_is_the_detected_one(self, x):
        found = ProductFrame.detect(x.points)
        f = x.frame
        assert all(np.array_equal(a, b) for a, b in zip(f.levels, found.levels))
        assert np.array_equal(f.index, found.index)
        assert np.array_equal(f.rotation, np.eye(x.n))

    def test_points_and_labels_in_product_order(self):
        x = make_qam_product(4, 2)
        assert [tuple(p) for p in x.points] == list(itertools.product([-1.0, 1.0], repeat=4))
        assert list(x.labels) == ["".join(b) for b in itertools.product("01", repeat=4)]

    def test_scaled_levels_are_the_detected_ones(self):
        x = normalize_energy(make_qam_product(64, 2), 12.0)
        found = ProductFrame.detect(x.points)
        assert all(np.array_equal(a, b) for a, b in zip(x.frame.levels, found.levels))

    def test_product_over_the_byte_budget_is_refused(self):
        # 64-QAM 8D: 2^24 points of 8 coordinates and 24-bit labels
        with pytest.raises(ValueError, match="need about 2432696320 bytes"):
            make_qam_product(64, 4)

    def test_a_frameless_set_is_searched_once(self, monkeypatch):
        # built, reported and decoded: only the constructor looks for a frame
        calls = []
        detect = ProductFrame.detect
        monkeypatch.setattr(ProductFrame, "detect",
                            staticmethod(lambda pts: calls.append(1) or detect(pts)))
        x = Constellation(np.random.default_rng(0).normal(size=(16, 2)))
        assert x.frame is None
        compute_report(x, ChannelSpec.from_ebn0_db(8.0))
        ml_decode(x, np.zeros((3, 2)), FadeVector(np.ones((3, 2))))
        assert len(calls) == 1

    def test_levels_that_collapse_are_refused(self):
        with pytest.raises(ValueError):
            ProductFrame((np.array([1.0, 1.0]),), np.arange(2).reshape(2), np.eye(1))

    def test_fit_refuses_two_points_in_one_cell(self):
        pts = np.array([[-3.0], [-1.0], [1.0], [1.1]])
        with pytest.raises(ValueError, match="two points fall in one cell"):
            ProductFrame.fit(pts, (np.array([-3.0, -1.0, 1.0, 3.0]),), np.eye(1))


class TestConstellationInvariants:
    def test_rejects_points_that_are_not_a_matrix(self):
        with pytest.raises(ValueError, match="points must be an m x n array"):
            Constellation(np.zeros(4))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Constellation(np.arange(6.0).reshape(3, 2))

    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError):
            Constellation(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_rejects_non_finite_points(self):
        # two NaN points would pass the distinctness check, as NaN != NaN
        for pts in ([[np.nan, 0.0], [1.0, 0.0]], [[np.inf, 0.0], [1.0, 0.0]],
                    [[np.nan, 0.0], [np.nan, 0.0]]):
            with pytest.raises(ValueError, match="finite"):
                Constellation(np.array(pts))

    def test_rejects_bad_labels(self):
        pts = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            Constellation(pts, ("0", "0"))
        with pytest.raises(ValueError):
            Constellation(pts, ("00", "01"))
        with pytest.raises(ValueError):
            Constellation(pts, ("0", "x"))


class TestNormalizeEnergy:
    def test_known_scale(self):
        # 2D 16-QAM has energy 10; bringing it to 2 scales by sqrt(1/5)
        x = normalize_energy(make_qam_product(16, 1), 2.0)
        assert x.energy == pytest.approx(2.0, abs=1e-12)
        assert x.points[0][0] == pytest.approx(-3.0 * math.sqrt(0.2), abs=1e-15)

    def test_identity_when_already_normalized(self):
        x = make_qam_product(4, 2)  # energy exactly 4
        y = normalize_energy(x, 4.0)
        assert np.max(np.abs(y.points - x.points)) <= 1e-15

    @given(st.floats(0.01, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_target_hit(self, target):
        x = normalize_energy(make_qam_product(16, 1), target)
        assert x.energy == pytest.approx(target, rel=1e-12)

    def test_labels_preserved(self):
        x = make_qam_product(16, 1)
        assert normalize_energy(x, 7.0).labels == x.labels

    def test_bad_target(self):
        with pytest.raises(ValueError):
            normalize_energy(make_qam_product(4, 1), 0.0)

    def test_rejects_an_all_zero_set(self):
        # one point at the origin: m = 1 is a power of two, and its energy is 0
        with pytest.raises(ValueError, match="all-zero constellation"):
            normalize_energy(Constellation(np.zeros((1, 2))), 1.0)


class TestRotate:
    def test_energy_invariant(self):
        x = make_qam_product(16, 2)
        q = rotation_at(skew_family(2), 0.7)
        assert rotate(x, q).energy == pytest.approx(x.energy, rel=1e-12)

    def test_row_vector_convention(self):
        # rotated point i equals Q @ points[i]
        x = make_qam_product(4, 1)
        q = rotation_at(skew_family(1), 0.3)
        y = rotate(x, q)
        assert np.allclose(y.points[2], q.entries @ x.points[2], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rotate(make_qam_product(4, 1), rotation_at(skew_family(2), 0.1))


class TestSerialization:
    def test_json_roundtrip_exact(self, tmp_path):
        x = normalize_energy(make_qam_product(16, 1), 4.0)
        path = tmp_path / "x.json"
        save(x, path)
        back = load(path)
        assert np.array_equal(back.points, x.points)
        assert back.labels == x.labels

    def test_json_without_labels(self, tmp_path):
        x = Constellation(np.array([[0.0, 1.0], [1.0, 0.0]]))
        path = tmp_path / "x.json"
        save(x, path)
        assert load(path).labels is None

    def test_stream_matches_path(self, tmp_path):
        x = make_qam_product(4, 1)
        path = tmp_path / "x.json"
        save(x, path)
        stream = io.StringIO()
        save(x, stream)
        assert stream.getvalue() == path.read_text()

    def test_null_labels_load_as_unlabeled(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"n": 2, "points": [[0.0, 1.0], [1.0, 0.0]], "labels": null}')
        assert load(path).labels is None

    def test_load_rejects_dimension_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "points": [[1.0, 2.0], [3.0, 4.0]]}')
        with pytest.raises(ValueError):
            load(path)

    def test_rotated_frame_roundtrip(self, tmp_path):
        x = rotate(normalize_energy(make_qam_product(64, 2), 12.0),
                   rotation_at(skew_family(2), math.radians(30.0)))
        path = tmp_path / "x.json"
        save(x, path)
        back = load(path)
        assert np.array_equal(back.points, x.points) and back.labels == x.labels
        f, g = x.frame, back.frame
        assert all(np.array_equal(a, b) for a, b in zip(f.levels, g.levels))
        assert np.array_equal(f.index, g.index) and np.array_equal(f.rotation, g.rotation)

    @pytest.mark.parametrize("edit", ["level", "rotation", "nan-point"])
    def test_load_rejects_a_frame_off_the_points(self, tmp_path, edit):
        x = rotate(make_qam_product(16, 1), rotation_at(skew_family(1), 0.4))
        path = tmp_path / "x.json"
        save(x, path)
        doc = json.loads(path.read_text())
        if edit == "level":
            doc["frame"]["levels"][0][1] += 1e-9
        elif edit == "nan-point":  # NaN sorts into the last cell, where point 15 belongs
            doc["points"][15][0] = math.nan
        else:  # still orthogonal to 1e-10, but no longer the points' rotation
            a = 1e-9
            r = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
            doc["frame"]["rotation"] = (np.array(doc["frame"]["rotation"]) @ r).tolist()
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="gives back the points"):
            load(path)

    @pytest.mark.parametrize("frame", [
        {"levels": [[-3, -1, 1, 3], [-3, -1, 1, 3]], "rotation": [[1, 0], [0, 2]]},
        {"levels": [[-3, 1, -1, 3], [-3, -1, 1, 3]], "rotation": [[1, 0], [0, 1]]},
        {"levels": [[-3, -1, 1, 3]], "rotation": [[1, 0], [0, 1]]},
        {"levels": [[-3, -1, 1, 3], [-3, -1, 1, 3]]},
        [1, 2],
    ], ids=["not-a-rotation", "levels-not-ascending", "wrong-dimension", "no-rotation",
            "not-an-object"])
    def test_load_rejects_a_malformed_frame(self, tmp_path, frame):
        doc = {"n": 2, "points": make_qam_product(16, 1).points.tolist(), "frame": frame}
        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load(path)

    def test_file_without_a_frame_is_detected(self, tmp_path):
        x = normalize_energy(make_qam_product(16, 2), 8.0)
        path = tmp_path / "x.json"
        save(x, path)
        doc = json.loads(path.read_text())
        del doc["frame"]
        path.write_text(json.dumps(doc))
        f = load(path).frame
        assert all(np.array_equal(a, b) for a, b in zip(f.levels, x.frame.levels))
        assert np.array_equal(f.index, x.frame.index)

    def test_points_csv(self, tmp_path):
        x = make_qam_product(4, 1)
        path = tmp_path / "x.csv"
        save_points_csv(x, path)
        assert np.array_equal(np.loadtxt(path, delimiter=","), x.points)
