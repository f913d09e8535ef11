"""Tests for the so(n)/SO(n) machinery."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotcon
from rotcon import (
    RotationFamily,
    RotationMatrix,
    SkewMatrix,
    expm_skew,
    geodesic_descent,
    gradient_field,
    hadamard,
    logm_rotation,
    rotation_at,
    skew_family,
)
from rotcon.liegroup import (
    load_rotation_csv,
    save_rotation_csv,
    skew_family_integer,
)


class TestHadamard:
    def test_base_cases(self):
        assert hadamard(0).tolist() == [[1]]
        assert hadamard(1).tolist() == [[1, 1], [1, -1]]
        assert hadamard(2).tolist() == [
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, 1],
        ]

    @pytest.mark.parametrize("k", range(0, 8))
    def test_orthogonal_rows(self, k):
        h = hadamard(k)
        n = 2**k
        assert np.array_equal(h @ h.T, n * np.eye(n, dtype=np.int64))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            hadamard(-1)
        with pytest.raises(ValueError):
            hadamard(13)


class TestSkewFamily:
    def test_integer_generator_square(self):
        for k in range(1, 6):
            b = skew_family_integer(k)
            n = 2**k
            assert np.array_equal(b, -b.T)
            assert np.array_equal(b @ b, -(n - 1) * np.eye(n, dtype=np.int64))

    def test_block_structure(self):
        b2 = skew_family_integer(1)
        assert b2.tolist() == [[0, 1], [-1, 0]]
        b4 = skew_family_integer(2)
        assert b4.tolist() == [
            [0, 1, 1, 1],
            [-1, 0, 1, -1],
            [-1, -1, 0, 1],
            [-1, 1, -1, 0],
        ]

    def test_normalized_entries(self):
        for k in (1, 2, 3):
            a = skew_family(k).A.entries
            off = a[~np.eye(2**k, dtype=bool)]
            assert np.allclose(np.abs(off), 1.0 / math.sqrt(2**k - 1))

    def test_generator_squares_to_minus_identity(self):
        for k in range(1, 6):
            a = skew_family(k).A.entries
            assert np.max(np.abs(a @ a + np.eye(2**k))) <= 1e-12

    def test_generator_is_the_integer_one_scaled(self):
        # B is antisymmetric in integers and division is sign-symmetric, so the
        # scaled generator is exactly antisymmetric with no symmetrizing step
        for k in range(1, 9):
            a = skew_family(k).A.entries
            assert np.array_equal(a, skew_family_integer(k) / math.sqrt(2**k - 1))
            assert np.array_equal(a, -a.T)

    @pytest.mark.parametrize("k", [0, 13])
    def test_rejects_bad_exponent(self, k):
        with pytest.raises(ValueError, match=f"k must be in 1..12, got {k}"):
            skew_family(k)


class TestRotationAt:
    def test_identity_at_zero(self):
        q = rotation_at(skew_family(2), 0.0)
        assert np.array_equal(q.entries, np.eye(4))

    def test_2d_family_is_plane_rotation(self):
        t = 0.3
        q = rotation_at(skew_family(1), t).entries
        expected = [[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]]
        assert np.allclose(q, expected, atol=1e-15)

    def test_entries_at_sixty_degrees(self):
        # cos 60 = 1/2 and sin(60)/sqrt(3) = 1/2: every entry has magnitude 1/2
        q = rotation_at(skew_family(2), math.radians(60.0))
        assert np.allclose(np.abs(q.entries), 0.5, atol=1e-15)

    @given(
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
        st.integers(1, 4),
    )
    @settings(max_examples=50, deadline=None)
    def test_one_parameter_subgroup(self, t, s, k):
        fam = skew_family(k)
        qa = rotation_at(fam, t).entries @ rotation_at(fam, s).entries
        qb = rotation_at(fam, t + s).entries
        assert np.allclose(qa, qb, atol=1e-12)


class TestStructuredTypes:
    @pytest.mark.parametrize("cls, match", [(SkewMatrix, "skew matrix must be square"),
                                            (RotationMatrix, "rotation matrix must be square")],
                             ids=["skew", "rotation"])
    def test_rejects_a_non_square_matrix(self, cls, match):
        with pytest.raises(ValueError, match=match):
            cls(np.zeros((2, 3)))

    def test_family_rejects_a_generator_not_squaring_to_minus_identity(self):
        with pytest.raises(ValueError, match=r"does not satisfy A\^2 = -I"):
            RotationFamily(SkewMatrix(np.zeros((2, 2))))

    def test_skew_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SkewMatrix(np.array([[0.0, 1.0], [-1.0 + 1e-14, 0.0]]))

    def test_rotation_rejects_reflection(self):
        with pytest.raises(ValueError):
            RotationMatrix(np.diag([1.0, -1.0]))

    def test_rotation_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            RotationMatrix(np.array([[1.0, 0.1], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rotation_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError):
            RotationMatrix(np.full((2, 2), bad))
        q = np.eye(3)
        q[1, 2] = bad
        with pytest.raises(ValueError):
            RotationMatrix(q)


class TestExpLog:
    def test_exp_of_zero(self):
        q = expm_skew(SkewMatrix(np.zeros((3, 3))))
        assert np.allclose(q.entries, np.eye(3), atol=1e-15)

    def test_exp_rejects_infinite_entries(self):
        # -(-inf) = inf, so this matrix is skew as stored
        a = SkewMatrix(np.array([[0.0, np.inf], [-np.inf, 0.0]]))
        with pytest.raises(ValueError, match="non-finite entries"):
            expm_skew(a)

    def test_exp_matches_closed_form_family(self):
        # exp(tA) = cos(t)I + sin(t)A when A^2 = -I
        fam = skew_family(2)
        for t in (0.1, 0.7, 1.4):
            q1 = expm_skew(SkewMatrix(t * fam.A.entries)).entries
            q2 = rotation_at(fam, t).entries
            assert np.allclose(q1, q2, atol=1e-13)

    @given(st.integers(0, 1000), st.floats(0.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_log_exp_roundtrip(self, seed, angle):
        # random skew matrices of each size whose largest rotation angle is `angle`
        rng = np.random.default_rng(seed)
        for n in (2, 4, 8, 16):
            m = rng.normal(size=(n, n))
            m -= m.T
            m *= angle / np.sqrt(np.max(np.linalg.eigvalsh(-(m @ m))))
            s = SkewMatrix(m)
            q = expm_skew(s).entries
            assert np.max(np.abs(q @ q.T - np.eye(n))) <= 1e-14
            assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-13)
            back = logm_rotation(RotationMatrix(q))
            assert np.max(np.abs(back.entries - s.entries)) <= 1e-12

    def test_log_rejects_half_turn(self):
        q = RotationMatrix(np.diag([-1.0, -1.0, 1.0]))
        with pytest.raises(ValueError, match="eigenvalue"):
            logm_rotation(q)


class TestGradientField:
    def test_is_exactly_skew(self):
        rng = np.random.default_rng(7)
        q = expm_skew(SkewMatrix(0.3 * (lambda m: m - m.T)(rng.normal(size=(4, 4)))))
        g = rng.normal(size=(4, 4))
        xf = gradient_field(g, q).entries
        assert np.array_equal(xf, -xf.T)

    def test_vanishes_for_radial_objective(self):
        # f(Q) = sum Q_ij^2 is constant on SO(n); its field must vanish
        q = rotation_at(skew_family(2), 0.9)
        xf = gradient_field(2.0 * q.entries, q).entries
        assert np.max(np.abs(xf)) <= 1e-12

    def test_dimension_mismatch(self):
        q = rotation_at(skew_family(1), 0.2)
        with pytest.raises(ValueError):
            gradient_field(np.zeros((3, 3)), q)


class TestGeodesicDescent:
    @staticmethod
    def _alignment_problem(target: RotationMatrix):
        # f(Q) = -tr(T^t Q), minimized on SO(n) exactly at Q = T
        def f_and_grad(q):
            return -float(np.trace(target.entries.T @ q.entries)), -target.entries

        return f_and_grad

    def test_converges_to_known_optimum(self):
        target = rotation_at(skew_family(2), 1.1)
        f_and_grad = self._alignment_problem(target)
        trace = geodesic_descent(f_and_grad, rotation_at(skew_family(2), 0.0))
        assert trace.converged and trace.reason == "gradient-tolerance"
        assert np.allclose(trace.final_rotation.entries, target.entries, atol=1e-5)

    def test_objective_decreases_monotonically(self):
        target = rotation_at(skew_family(2), 0.8)
        f_and_grad = self._alignment_problem(target)
        trace = geodesic_descent(f_and_grad, rotation_at(skew_family(2), 0.0))
        vals = [row[2] for row in trace.iterates]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_iterates_stay_on_manifold(self, monkeypatch):
        # f(Q) = -tr(C T^t Q) with weights C spread over three decades: still
        # minimized at Q = T, but ill-conditioned enough to take many steps
        target = rotation_at(skew_family(2), 0.8).entries
        weights = np.diag([1.0, 10.0, 100.0, 1000.0])
        q0 = rotation_at(skew_family(2), 0.0)

        def f_and_grad(q):
            return -float(np.trace(weights @ target.T @ q.entries)), -target @ weights

        evals = validations = 0

        def counted_f_and_grad(q):
            nonlocal evals
            evals += 1
            return f_and_grad(q)

        validate = RotationMatrix.__post_init__

        def counted_validate(self):
            nonlocal validations
            validations += 1
            validate(self)

        monkeypatch.setattr(RotationMatrix, "__post_init__", counted_validate)
        trace = geodesic_descent(counted_f_and_grad, q0)
        for _, q, _, _ in trace.iterates[:: max(1, len(trace.iterates) // 10)]:
            assert np.max(np.abs(q.entries @ q.entries.T - np.eye(4))) <= 1e-10
        assert len(trace.iterates) > 50
        # each trial rotation is validated once and the accepted one is reused
        assert validations == evals

    def test_max_iterations_reason(self):
        target = rotation_at(skew_family(2), 1.1)
        f_and_grad = self._alignment_problem(target)
        trace = geodesic_descent(f_and_grad, rotation_at(skew_family(2), 0.0), max_iters=2)
        assert not trace.converged
        assert trace.reason == "max-iterations"

    def test_step_underflow_reason(self):
        # f is constant, so no step passes the Armijo test however small,
        # while the fixed gradient's skew field stays nonzero
        g = np.triu(np.ones((4, 4)), 1)
        trace = geodesic_descent(lambda q: (0.0, g), rotation_at(skew_family(2), 0.3))
        assert trace.iterates[-1][3] > 0
        assert trace.reason == "step-underflow"
        assert trace.converged is False

    def test_rejects_bad_step(self):
        target = rotation_at(skew_family(1), 0.5)
        f_and_grad = self._alignment_problem(target)
        with pytest.raises(ValueError):
            geodesic_descent(f_and_grad, target, step=0.0)

    @pytest.mark.parametrize("finite_calls, match", [(0, "not finite at the initial rotation"),
                                                     (1, "became non-finite during descent")],
                             ids=["start", "descent"])
    def test_rejects_a_non_finite_objective(self, finite_calls, match):
        # f is NaN after its first finite_calls evaluations; the gradient's
        # skew field is nonzero, so the descent takes a trial step
        g = np.triu(np.ones((4, 4)), 1)
        calls = []

        def f_and_grad(q):
            calls.append(q)
            return (0.0 if len(calls) <= finite_calls else math.nan), g

        with pytest.raises(ValueError, match=match):
            geodesic_descent(f_and_grad, rotation_at(skew_family(2), 0.3))


def test_descent_and_maps_never_import_scipy():
    # the package depends on numpy alone; scipy may still be installed, so
    # check in a fresh interpreter that nothing imports it
    code = """
import contextlib, io, sys
import rotcon
from rotcon.cli import main
x = rotcon.make_qam_product(16, 2)
x = rotcon.normalize_energy(x, float(x.q_bits))
trace = rotcon.optimize_rotation_full(x, rotcon.ChannelSpec.from_ebn0_db(10.0))
rotcon.logm_rotation(trace.final_rotation)
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["opt-rotation", "--qam", "4", "--half-dims", "2", "--ebn0-db", "10",
                 "--mode", "manifold"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    src = os.path.dirname(os.path.dirname(rotcon.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


class TestRotationCsv:
    def test_roundtrip_bit_identical(self, tmp_path):
        q = rotation_at(skew_family(3), 0.456)
        path = tmp_path / "q.csv"
        save_rotation_csv(q, path)
        back = load_rotation_csv(path)
        assert np.array_equal(back.entries, q.entries)

    def test_load_validates(self, tmp_path):
        path = tmp_path / "bad.csv"
        np.savetxt(path, np.ones((2, 2)), delimiter=",")
        with pytest.raises(ValueError):
            load_rotation_csv(path)
