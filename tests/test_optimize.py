"""Tests for the rotation-family search, manifold descent, and NUQAM ascent."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotcon import (
    ChannelSpec,
    Constellation,
    NuqamParams,
    cutoff_rate,
    cutoff_rate_gradient,
    g_of_t,
    grid_search_t,
    low_snr_optimal_t,
    make_nuqam,
    make_qam_product,
    normalize_energy,
    optimize_nuqam,
    optimize_rotation_full,
    rotate,
    rotation_at,
    skew_family,
)
from rotcon import metrics, optimize
from rotcon.liegroup import RotationMatrix, SkewMatrix, expm_skew
from rotcon.metrics import (_t_invariant_classes, pair_sum_rational, rate_from_pair_sum,
                            rational_weights)
from rotcon.optimize import (
    _nuqam_rate_and_gradient,
    _project_alpha,
    _rate_and_gradient,
    default_nuqam_init,
    default_start_rotation,
)

from conftest import random_constellation


class TestLowSnrOptimum:
    def test_closed_form_values(self):
        assert math.degrees(low_snr_optimal_t(4)) == pytest.approx(60.0, abs=1e-12)
        assert math.degrees(low_snr_optimal_t(8)) == pytest.approx(69.2952, abs=1e-4)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            low_snr_optimal_t(6)


class TestGOfT:
    def test_boundary_values(self):
        ch = ChannelSpec.from_ebn0_db(6.0)
        c = 1.0 / (2.0 * ch.N0)
        assert g_of_t(4, ch, 0.0) == pytest.approx(1.0 + c, rel=1e-14)
        assert g_of_t(4, ch, math.pi / 2) == pytest.approx((1.0 + c / 3.0) ** 3, rel=1e-14)

    def test_maximum_at_closed_form(self):
        ch = ChannelSpec.from_ebn0_db(4.0)
        for n in (4, 8):
            t_star = low_snr_optimal_t(n)
            for dt in (-0.01, 0.01):
                assert g_of_t(n, ch, t_star) > g_of_t(n, ch, t_star + dt)


class TestGridSearch:
    def test_matches_inline_scan(self):
        x = normalize_energy(make_qam_product(4, 1), 2.0)
        ch = ChannelSpec.from_ebn0_db(8.0)
        step = 1e-3
        fam = skew_family(1)
        ts = np.arange(0.0, math.pi / 2 + step / 2, step)
        rates = [cutoff_rate(rotate(x, rotation_at(fam, t)), ch) for t in ts]
        best = int(np.argmax(rates))
        res = grid_search_t(x, ch, grid_step=step)
        assert res.t_opt == pytest.approx(ts[best], abs=1e-15)
        assert res.objective == pytest.approx(rates[best], abs=1e-12)

    def test_objective_invariant(self):
        # reported objective equals the rate of the reported rotation
        x = normalize_energy(make_qam_product(4, 2), 4.0)
        ch = ChannelSpec.from_ebn0_db(10.0)
        res = grid_search_t(x, ch, grid_step=1e-3)
        r = cutoff_rate(rotate(x, rotation_at(skew_family(2), res.t_opt)), ch)
        assert res.objective == pytest.approx(r, abs=1e-12)

    def test_profile_covers_grid(self):
        x = normalize_energy(make_qam_product(4, 1), 2.0)
        res = grid_search_t(x, ChannelSpec.from_ebn0_db(6.0), grid_step=0.01,
                            keep_profile=True)
        ts = [t for t, _ in res.profile]
        assert ts[0] == 0.0
        assert ts[-1] == pytest.approx(math.pi / 2, abs=0.01)
        assert (res.t_opt, res.objective) in res.profile

    def test_rejects_bad_inputs(self):
        ch = ChannelSpec.from_ebn0_db(5.0)
        with pytest.raises(ValueError):
            grid_search_t(normalize_energy(make_qam_product(4, 1), 2.0), ch, grid_step=0.0)
        # one point: no pair to sum
        with pytest.raises(ValueError, match="degenerate constellation"):
            grid_search_t(Constellation(np.zeros((1, 2))), ch)

    @pytest.mark.parametrize("name", ["16qam4d", "4qam8d", "nuqam16", "rand2d", "rand4d",
                                      "rand8d"])
    def test_profile_matches_rotated_cutoff_rate(self, name):
        # the class-merged sum must give the rate of the rotated points at every t
        x = {
            "16qam4d": lambda: normalize_energy(make_qam_product(16, 2), 8.0),
            "4qam8d": lambda: normalize_energy(make_qam_product(4, 4), 8.0),
            "nuqam16": lambda: normalize_energy(make_nuqam(NuqamParams((0.7, 2.9))), 4.0),
            "rand2d": lambda: random_constellation(np.random.default_rng(2), 16, 2),
            "rand4d": lambda: random_constellation(np.random.default_rng(4), 16, 4),
            "rand8d": lambda: random_constellation(np.random.default_rng(8), 16, 8),
        }[name]()
        ch = ChannelSpec.from_ebn0_db(9.0)
        fam = skew_family(x.n.bit_length() - 1)
        res = grid_search_t(x, ch, grid_step=1e-2, keep_profile=True)
        ts = [t for t, _ in res.profile]
        oracle = [cutoff_rate(rotate(x, rotation_at(fam, t)), ch) for t in ts]
        np.testing.assert_allclose([r for _, r in res.profile], oracle, rtol=1e-12, atol=0)
        # ties go to the smaller t, on the profile and on the oracle
        assert res.t_opt == ts[int(np.argmax([r for _, r in res.profile]))]
        assert res.t_opt == ts[int(np.argmax(oracle))]

    def test_classes_do_not_depend_on_the_row_order(self):
        # each class is represented by its lexicographically least row
        z, counts = normalize_energy(make_qam_product(16, 2), 8.0).pair_differences
        a = skew_family(2).A.entries
        perm = np.random.default_rng(0).permutation(len(z))
        for got, want in zip(_t_invariant_classes(z[perm], counts[perm], a),
                             _t_invariant_classes(z, counts, a)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("m_axis, half_dims, classes", [(16, 2, 116), (4, 4, 33)])
    def test_kernel_sees_one_row_per_class(self, monkeypatch, m_axis, half_dims, classes):
        # each kernel call takes a block of whole t-rows, one row per class
        seen = []

        def counting(z, n0):
            seen.append(len(z))
            return rational_weights(z, n0)

        monkeypatch.setattr(optimize, "rational_weights", counting)
        x = normalize_energy(make_qam_product(m_axis, half_dims), 8.0)
        res = grid_search_t(x, ChannelSpec.from_ebn0_db(8.0), grid_step=0.05,
                            keep_profile=True)
        assert seen and all(rows % classes == 0 for rows in seen)
        assert sum(seen) == classes * len(res.profile)

    @pytest.mark.parametrize("m_axis, half_dims", [(16, 2), (4, 4), (64, 2)])
    def test_blocks_give_the_bits_of_one_kernel_call_per_t(self, m_axis, half_dims):
        # 158 grid points: not a multiple of the 17 and 31 t per block of 16-QAM
        # 4D and 4-QAM 8D; 64-QAM 4D's 2,184 classes x 4 > 8,192 give one t a block
        x = make_qam_product(m_axis, half_dims)
        x = normalize_energy(x, float(x.q_bits))
        ch = ChannelSpec.from_ebn0_db(9.0)
        res = grid_search_t(x, ch, grid_step=1e-2, keep_profile=True)
        z, za, cf = x.family_classes
        ts = np.arange(0.0, math.pi / 2, 1e-2)  # the search's grid: it stops at 1.57
        want = [(float(t), rate_from_pair_sum(x.q_bits, pair_sum_rational(
                    math.cos(t) * z + math.sin(t) * za, cf, ch.N0))) for t in ts]
        assert len(want) == 158
        assert res.profile == want
        best = max(range(len(want)), key=lambda i: (want[i][1], -i))
        assert (res.t_opt, res.objective) == want[best]

    def test_classes_are_built_once_per_constellation(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return _t_invariant_classes(*args)

        monkeypatch.setattr(metrics, "_t_invariant_classes", counting)
        x = normalize_energy(make_qam_product(16, 2), 8.0)
        for db in (4.0, 8.0, 12.0):
            grid_search_t(x, ChannelSpec.from_ebn0_db(db), grid_step=0.05)
        assert len(calls) == 1
        assert not any(a.flags.writeable for a in x.family_classes)


class TestGradient:
    def test_matches_finite_differences(self, rng):
        x = random_constellation(rng, 16, 4)
        ch = ChannelSpec.from_ebn0_db(7.0)
        m = rng.normal(scale=0.2, size=(4, 4))
        q = expm_skew(SkewMatrix(m - m.T))
        grad = cutoff_rate_gradient(x, ch, q)
        h = 1e-6
        for i in range(4):
            for j in range(4):
                qp, qm_ = q.entries.copy(), q.entries.copy()
                qp[i, j] += h
                qm_[i, j] -= h

                def rate_at(mat):
                    pts = x.points @ mat.T
                    z = pts[:, None, :] - pts[None, :, :]
                    w = 1.0 / (1.0 + z**2 / (8.0 * ch.N0))
                    s = np.sum(np.prod(w, axis=2)) - x.m
                    return x.q_bits - math.log2(1.0 + s / 2.0**x.q_bits)

                fd = (rate_at(qp) - rate_at(qm_)) / (2 * h)
                assert grad[i, j] == pytest.approx(fd, rel=2e-5, abs=1e-9)

    def test_dimension_mismatch(self):
        x = make_qam_product(4, 1)
        ch = ChannelSpec.from_ebn0_db(5.0)
        q = rotation_at(skew_family(2), 0.3)
        with pytest.raises(ValueError):
            cutoff_rate_gradient(x, ch, q)

    @pytest.mark.parametrize("name", ["16qam4d", "4qam8d", "rand4d"])
    def test_descent_rate_matches_rotated_cutoff_rate(self, name):
        x = {
            "16qam4d": lambda: normalize_energy(make_qam_product(16, 2), 8.0),
            "4qam8d": lambda: normalize_energy(make_qam_product(4, 4), 8.0),
            "rand4d": lambda: random_constellation(np.random.default_rng(4), 16, 4),
        }[name]()
        rng = np.random.default_rng(17)
        ch = ChannelSpec.from_ebn0_db(9.0)
        z, counts = x.pair_differences
        for _ in range(5):
            m = rng.normal(size=(x.n, x.n))
            q = expm_skew(SkewMatrix(m - m.T))
            rate, _ = _rate_and_gradient(z, counts, x.q_bits, ch.N0, q.entries)
            assert rate == pytest.approx(cutoff_rate(rotate(x, q), ch), rel=1e-12, abs=0)


class TestManifoldDescent:
    def test_recovers_family_optimum_in_2d(self):
        # over SO(2) the family parameterizes the whole group
        x = normalize_energy(make_qam_product(4, 1), 2.0)
        ch = ChannelSpec.from_ebn0_db(8.0)
        trace = optimize_rotation_full(x, ch)
        grid = grid_search_t(x, ch, grid_step=1e-4)
        assert -trace.final_objective >= grid.objective - 1e-8

    def test_improves_on_start(self):
        x = normalize_energy(make_qam_product(4, 2), 4.0)
        ch = ChannelSpec.from_ebn0_db(10.0)
        q0 = default_start_rotation(4)
        trace = optimize_rotation_full(x, ch, q0=q0, max_iters=200)
        assert -trace.final_objective > cutoff_rate(rotate(x, q0), ch)

    def test_final_iterate_is_near_critical(self):
        x = normalize_energy(make_qam_product(4, 1), 2.0)
        ch = ChannelSpec.from_ebn0_db(8.0)
        trace = optimize_rotation_full(x, ch)
        assert trace.converged and trace.reason == "gradient-tolerance"
        assert trace.iterates[-1][3] <= 1e-8


class TestNuqamAscent:
    def test_default_init_is_uniform_qam(self):
        assert default_nuqam_init(4).alpha == (1.0, 3.0)
        assert default_nuqam_init(6).alpha == (1.0, 3.0, 5.0, 7.0)

    def test_improves_on_uniform(self):
        ch = ChannelSpec.from_ebn0_db(8.0)
        res = optimize_nuqam(4, ch)
        base = cutoff_rate(normalize_energy(make_nuqam(NuqamParams((1.0, 3.0))), 4.0), ch)
        assert res.objective > base
        assert res.converged

    def test_result_invariants(self):
        ch = ChannelSpec.from_ebn0_db(8.0)
        res = optimize_nuqam(4, ch)
        a = np.array(res.alpha.alpha)
        assert np.all(a > 0) and np.all(np.diff(a) > 0)
        # iterates stay normalized to constellation energy q
        assert 2.0 * np.mean(a**2) == pytest.approx(4.0, rel=1e-9)

    def test_restarts_deterministic(self):
        ch = ChannelSpec.from_ebn0_db(8.0)
        a = optimize_nuqam(4, ch, restarts=2, seed=5)
        b = optimize_nuqam(4, ch, restarts=2, seed=5)
        assert a.alpha.alpha == b.alpha.alpha

    def test_not_converged_without_reaching_gradient_tolerance(self):
        res = optimize_nuqam(4, ChannelSpec.from_ebn0_db(8.0), grad_tol=0.0, max_iters=200)
        assert res.converged is False
        assert res.reason in ("max-iterations", "step-underflow")

    def test_rejects_bad_q_bits(self):
        with pytest.raises(ValueError):
            optimize_nuqam(5, ChannelSpec.from_ebn0_db(8.0))

    def test_projection_breaks_ties(self):
        a = _project_alpha(np.array([1.0, 1.0]), 4)
        assert np.all(np.diff(a) > 0)
        assert 2.0 * np.mean(a**2) == pytest.approx(4.0, rel=1e-12)

    def test_objective_is_the_cutoff_rate_of_the_result(self):
        ch = ChannelSpec.from_ebn0_db(12.0)
        res = optimize_nuqam(6, ch)
        x = normalize_energy(make_nuqam(res.alpha), 6.0)
        assert res.objective == cutoff_rate(x, ch)

    def test_ill_conditioned_ascent_reaches_gradient_tolerance(self):
        # thousands of steps at this SNR; the reference rate is that of the
        # finite-difference ascent this one replaced
        res = optimize_nuqam(6, ChannelSpec.from_ebn0_db(13.6))
        assert res.reason == "gradient-tolerance"
        assert res.objective >= 4.0074818722710415 - 1e-9


@st.composite
def _nuqam_inputs(draw):
    """Energy target q_bits in 2..10, its k = 2^(q/2 - 1) levels, and an Eb/N0 in dB."""
    q_bits = draw(st.sampled_from([2, 4, 6, 8, 10]))
    k = 2 ** (q_bits // 2 - 1)
    steps = draw(st.lists(st.floats(0.01, 5.0), min_size=k, max_size=k))
    alpha = np.cumsum(steps) * draw(st.floats(0.01, 100.0))
    return alpha, q_bits, draw(st.floats(0.0, 20.0))


class TestNuqamRateAndGradient:
    @staticmethod
    def _rate(alpha, q_bits, ch):
        x = make_nuqam(NuqamParams(tuple(alpha)))
        return cutoff_rate(normalize_energy(x, float(q_bits)), ch)

    @given(_nuqam_inputs())
    @settings(max_examples=60, deadline=None)
    def test_rate_matches_cutoff_rate(self, inputs):
        alpha, q_bits, db = inputs
        ch = ChannelSpec.from_ebn0_db(db)
        rate, _ = _nuqam_rate_and_gradient(alpha, q_bits, ch.N0)
        assert rate == pytest.approx(self._rate(alpha, q_bits, ch), rel=1e-12, abs=0)

    @given(_nuqam_inputs())
    # one level: the exact gradient is 0, the difference quotient a rounding error
    @example(inputs=(np.array([0.01]), 2, 5.0))
    @settings(max_examples=20, deadline=None)
    def test_gradient_matches_finite_differences(self, inputs):
        alpha, q_bits, db = inputs
        ch = ChannelSpec.from_ebn0_db(db)
        _, grad = _nuqam_rate_and_gradient(alpha, q_bits, ch.N0)
        # the rate is invariant to scaling alpha, so the step and the compared
        # values follow its scale: alpha[-1] * grad is scale-free
        h = 1e-6 * alpha[-1]
        for i in range(len(alpha)):
            ap, am = alpha.copy(), alpha.copy()
            ap[i] += h
            am[i] -= h
            fd = (self._rate(ap, q_bits, ch) - self._rate(am, q_bits, ch)) / (2 * h)
            assert alpha[-1] * grad[i] == pytest.approx(alpha[-1] * fd, rel=2e-5, abs=1e-9)
