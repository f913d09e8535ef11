"""Tests for rate, diversity, and distance functionals against naive oracles."""

import logging
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotcon
from rotcon import (
    ChannelSpec,
    Constellation,
    NuqamParams,
    cutoff_rate,
    diversity_order,
    high_snr_sum,
    is_locally_fully_diverse,
    local_cutoff_rate,
    make_nuqam,
    make_qam_product,
    min_product_distance,
    normalize_energy,
    r0_conditional,
    r0_expected_mc,
    rotate,
    rotation_at,
    sample_fade,
    skew_family,
)
from rotcon.liegroup import SkewMatrix, expm_skew
from rotcon.metrics import (
    COORDINATE_TOL,
    EmptyBallWarning,
    _ball,
    compute_report,
    difference_multiset,
    pair_sum_rational,
    rational_weights,
)

from conftest import (
    naive_cutoff_rate,
    naive_diversity,
    naive_local_cutoff_rate,
    naive_min_product_distance,
    naive_pair_sum,
    random_constellation,
)


class TestChannelSpec:
    def test_ebn0_mapping(self):
        assert ChannelSpec.from_ebn0_db(10.0).N0 == pytest.approx(0.1, rel=1e-15)
        assert ChannelSpec.from_ebn0_db(0.0).N0 == 1.0

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            ChannelSpec(N0=0.0)

    @pytest.mark.parametrize("n0", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_noise(self, n0):
        with pytest.raises(ValueError):
            ChannelSpec(N0=n0)


class TestDifferenceMultiset:
    def test_counts_cover_all_ordered_pairs(self):
        x = make_qam_product(16, 1)
        z, counts = difference_multiset(x.points)
        assert counts.sum() == x.m * (x.m - 1)
        assert not np.any(np.all(np.abs(z) == 0, axis=1))

    def test_matches_raw_pairs_on_random_points(self, rng):
        x = random_constellation(rng, 16, 3)
        z, counts = difference_multiset(x.points)
        n0 = 0.2
        assert pair_sum_rational(z, counts, n0) == pytest.approx(
            naive_pair_sum(x.points, n0), rel=1e-12
        )

    def test_raw_fallback_is_logged(self, rng, caplog):
        # an INFO record on the "rotcon" logger, not a warning
        x = random_constellation(rng, 16, 4)
        with caplog.at_level(logging.INFO, logger="rotcon"), warnings.catch_warnings():
            warnings.simplefilter("error")
            z, _ = difference_multiset(x.points)
            q = make_qam_product(16, 2)
            difference_multiset(q.points, q.frame)  # compressed: no record
        assert len(z) == x.m * (x.m - 1)
        records = [r for r in caplog.records if r.name == "rotcon"]
        assert [r.levelno for r in records] == [logging.INFO]
        assert "m=16, n=4" in records[0].getMessage()

    def test_survives_scaling_noise(self):
        # scaled grids must still collapse to the small difference alphabet
        x = normalize_energy(make_qam_product(64, 1), 6.0)
        z, _ = difference_multiset(x.points, x.frame)
        assert len(z) == 15 * 15 - 1

    def test_product_over_the_byte_budget_is_refused(self):
        # 4-QAM 16D: 3^16 - 1 product rows of 16 coordinates, about 5.9 GB
        x = make_qam_product(4, 8)
        with pytest.raises(ValueError, match="product pair differences of m=65536 points "
                                             "in n=16 dimensions need about 5854354056 bytes"):
            x.pair_differences

    @pytest.mark.parametrize("build", [
        lambda: make_nuqam(NuqamParams((1.0, 1.0 + 1e-13))),
        lambda: Constellation(np.stack(np.meshgrid([0.0, 1.0, 1.0 + 2.0**-52, 10.0], [0.0, 1.0],
                                                   indexing="ij"), axis=-1).reshape(-1, 2)),
    ], ids=["nuqam", "grid"])
    def test_levels_closer_than_the_merge_keep_their_pairs(self, build):
        # their nonzero differences merge within 1e-12 relative, but never into 0
        x = build()
        assert x.frame is not None
        _, counts = x.pair_differences
        assert counts.sum() == x.m * (x.m - 1)
        ch = ChannelSpec(0.3)
        assert cutoff_rate(x, ch) == pytest.approx(
            naive_cutoff_rate(x.points, x.q_bits, ch.N0), rel=1e-12)

    def test_a_one_level_axis_matches_raw_pairs(self):
        x = Constellation(np.array([[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]], dtype=float))
        assert [len(lv) for lv in x.frame.levels] == [2, 2, 1]
        z, counts = difference_multiset(x.points, x.frame)
        raw, _ = difference_multiset(x.points)
        assert sorted(map(tuple, np.repeat(z, counts, axis=0))) == sorted(map(tuple, raw))

    def test_the_product_set_is_allocated_once(self):
        # the build's peak is Z and its counts, with no second full-size copy
        x = make_qam_product(256, 2)
        for y in (x, rotate(x, rotation_at(skew_family(2), math.radians(30.0)))):
            tracemalloc.start()
            try:
                z, counts = difference_multiset(y.points, y.frame)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.2 * (z.nbytes + counts.nbytes)

    def test_symmetric_multiset(self):
        x = make_qam_product(4, 2)
        z, counts = difference_multiset(x.points)
        order = np.lexsort(z.T)
        zneg, cneg = -z[::-1], counts[::-1]
        order2 = np.lexsort(zneg.T)
        assert np.allclose(z[order], zneg[order2], atol=1e-15)
        assert np.array_equal(counts[order], cneg[order2])


class TestPairDifferenceCache:
    def test_cached_arrays_are_read_only(self):
        z, counts = make_qam_product(4, 1).pair_differences
        assert not z.flags.writeable and not counts.flags.writeable

    def test_children_never_return_the_parent_set(self):
        x = normalize_energy(make_qam_product(16, 1), 4.0)
        z, counts = x.pair_differences
        children = (rotate(x, rotation_at(skew_family(1), 0.0)), normalize_energy(x, 4.0))
        for child in children:
            zc, cc = child.pair_differences
            assert zc is not z and not np.shares_memory(zc, z)
            assert np.allclose(zc, z, rtol=0, atol=1e-15) and np.array_equal(cc, counts)
        assert x.pair_differences[0] is z

    @pytest.mark.parametrize("M,half_dims,t1,t2", [(4, 2, 60.0, 25.0), (16, 1, 13.0, 71.0),
                                                   (64, 1, 45.0, 45.0)])
    @pytest.mark.parametrize("renormalize", [False, True])
    def test_twice_rotated_report_matches_naive_oracles(self, M, half_dims, t1, t2, renormalize):
        # the frame composes the two rotations, so the set is z (Q2 Q1)^T
        # where the points are (x Q1^T) Q2^T: equal up to rounding
        x = normalize_energy(make_qam_product(M, half_dims), 2.0 * half_dims)
        fam = skew_family((2 * half_dims).bit_length() - 1)
        q1, q2 = (rotation_at(fam, math.radians(t)) for t in (t1, t2))
        y = rotate(rotate(x, q1), q2)
        if renormalize:
            y = normalize_energy(y, 3.0)
        assert len(y.pair_differences[0]) < y.m * (y.m - 1)  # the product set, not raw pairs
        ch = ChannelSpec.from_ebn0_db(8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyBallWarning)
            rep = compute_report(y, ch, radii=(1.0, 2.0, math.inf))
        assert rep.cutoff_rate == pytest.approx(
            naive_cutoff_rate(y.points, y.q_bits, ch.N0), rel=1e-12)
        for r in rep.radii:
            assert rep.local_cutoff_rate[r] == pytest.approx(
                naive_local_cutoff_rate(y.points, y.q_bits, r, ch.N0), rel=1e-12)
            assert rep.diversity[r] == naive_diversity(y.points, r)
            assert rep.min_product[r] == pytest.approx(
                naive_min_product_distance(y.points, r), rel=1e-12)

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=4).filter(lambda e: 0 < sum(e) <= 5),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_products_and_their_rotations_match_naive_oracles(self, log_levels, seed):
        rng = np.random.default_rng(seed)
        axes = [rng.uniform(0.1, 3.0, size=2**e) for e in log_levels]
        n = len(axes)
        x = Constellation(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n))
        s = rng.normal(size=(n, n))
        ch = ChannelSpec(float(rng.uniform(0.05, 1.0)))
        for y in (x, rotate(x, expm_skew(SkewMatrix(s - s.T)))):
            z, counts = y.pair_differences
            assert counts.sum() == y.m * (y.m - 1)
            assert cutoff_rate(y, ch) == pytest.approx(
                naive_cutoff_rate(y.points, y.q_bits, ch.N0), rel=1e-12)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EmptyBallWarning)
                assert local_cutoff_rate(y, 2.0, ch) == pytest.approx(
                    naive_local_cutoff_rate(y.points, y.q_bits, 2.0, ch.N0), rel=1e-12)
            assert diversity_order(y) == naive_diversity(y.points, math.inf)
            # both sides get each coordinate to a few ulps of the largest one, so
            # a coordinate kappa times smaller that the product picks up carries
            # kappa times that relative error
            az = np.abs(z)
            kappa = az.max() / az[az > COORDINATE_TOL].min()
            assert min_product_distance(y)[0] == pytest.approx(
                naive_min_product_distance(y.points, math.inf), rel=max(1e-12, 1e-15 * kappa))


class TestCutoffRate:
    def test_frozen_2d_4qam_at_10db(self):
        x = normalize_energy(make_qam_product(4, 1), 2.0)
        r = cutoff_rate(x, ChannelSpec.from_ebn0_db(10.0))
        assert r == pytest.approx(1.555215157327104, abs=1e-12)

    def test_frozen_2d_16qam_at_8db(self):
        x = normalize_energy(make_qam_product(16, 1), 4.0)
        r = cutoff_rate(x, ChannelSpec.from_ebn0_db(8.0))
        assert r == pytest.approx(2.195512613937055, abs=1e-12)

    @given(st.integers(0, 500), st.floats(-5.0, 20.0))
    @settings(max_examples=30, deadline=None)
    def test_matches_naive_oracle(self, seed, db):
        rng = np.random.default_rng(seed)
        x = random_constellation(rng, 8, 2)
        ch = ChannelSpec.from_ebn0_db(db)
        assert cutoff_rate(x, ch) == pytest.approx(
            naive_cutoff_rate(x.points, 3, ch.N0), rel=1e-12
        )

    @given(st.integers(0, 500), st.floats(-10.0, 30.0))
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, seed, db):
        rng = np.random.default_rng(seed)
        x = random_constellation(rng, 16, 2)
        r = cutoff_rate(x, ChannelSpec.from_ebn0_db(db))
        assert 0.0 <= r <= x.q_bits

    def test_monotone_in_snr(self):
        x = normalize_energy(make_qam_product(16, 1), 4.0)
        rates = [cutoff_rate(x, ChannelSpec.from_ebn0_db(db)) for db in range(-5, 25, 2)]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    @pytest.mark.parametrize("rows", [33, 2400])
    def test_row_products_are_those_of_np_prod(self, rng, n, rows):
        z = rng.normal(scale=3.0, size=(rows, n))
        w_rows = 1.0 / (1.0 + z**2 * (1.0 / (8.0 * 0.1)))  # stored by row, as z is
        for zz in (z, np.asfortranarray(z)):
            w, p = rational_weights(zz, 0.1)
            assert np.array_equal(w, w_rows)
            assert np.array_equal(p, np.prod(w_rows, axis=1))

    def test_weights_take_one_array_the_size_of_z(self, rng):
        # w is formed in place, so z^2 and w are never held at once
        z = rng.normal(size=(200_000, 4))
        tracemalloc.start()
        try:
            w, p = rational_weights(z, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= w.nbytes + p.nbytes + (64 << 10)


class TestConditionalRate:
    def test_frozen_all_ones_fade(self):
        x = normalize_energy(make_qam_product(16, 1), 4.0)
        r = r0_conditional(x, np.ones(2), ChannelSpec.from_ebn0_db(8.0))
        assert r == pytest.approx(2.9657563622709984, abs=1e-12)

    def test_zero_fade_gives_zero_rate(self):
        # with h = 0 every pair term is 1 and the bound collapses to 0 bits
        x = normalize_energy(make_qam_product(4, 1), 2.0)
        r = r0_conditional(x, np.zeros(2), ChannelSpec.from_ebn0_db(6.0))
        assert r == pytest.approx(0.0, abs=1e-12)

    def test_rotated_16qam_4d_matches_double_loop(self):
        x = rotate(normalize_energy(make_qam_product(16, 2), 8.0),
                   rotation_at(skew_family(2), 0.5))
        h = np.array([0.3, 1.1, 0.7, 1.6])
        ch = ChannelSpec.from_ebn0_db(8.0)
        pts, hsq = x.points.tolist(), (h**2).tolist()
        s = 0.0
        for i, a in enumerate(pts):
            for j, b in enumerate(pts):
                if i != j:
                    d2 = sum(g * (ak - bk) ** 2 for g, ak, bk in zip(hsq, a, b))
                    s += math.exp(-d2 / (8.0 * ch.N0))
        want = x.q_bits - math.log2(1.0 + s / 2.0**x.q_bits)
        assert r0_conditional(x, h, ch) == pytest.approx(want, rel=1e-12)

    def test_rejects_bad_fade(self):
        x = make_qam_product(4, 1)
        ch = ChannelSpec.from_ebn0_db(5.0)
        with pytest.raises(ValueError):
            r0_conditional(x, np.array([1.0, -1.0]), ch)
        with pytest.raises(ValueError):
            r0_conditional(x, np.ones(3), ch)
        with pytest.raises(ValueError):
            r0_conditional(x, np.ones((5, 3)), ch)

    def test_batch_over_many_passes_equals_single_calls(self):
        # u = 15^4 - 1 = 50,624 distinct differences give 2^20 // u = 20
        # fades a pass, so these 700 take 35
        x = rotate(normalize_energy(make_qam_product(64, 2), 12.0),
                   rotation_at(skew_family(2), math.radians(30.0)))
        ch = ChannelSpec.from_ebn0_db(8.0)
        h = sample_fade((700, 4), np.random.default_rng(1)).h
        rates = r0_conditional(x, h, ch)
        assert rates.shape == (700,)
        assert rates.tolist() == [r0_conditional(x, hk, ch) for hk in h]


class TestExpectedRateMc:
    def test_deterministic_given_seed(self):
        x = normalize_energy(make_qam_product(4, 2), 4.0)
        ch = ChannelSpec.from_ebn0_db(8.0)
        a = r0_expected_mc(x, ch, 500, seed=3)
        b = r0_expected_mc(x, ch, 500, seed=3)
        assert a == b

    def test_jensen_direction(self):
        # E[R0(X; h)] >= R(X), tested with a 3-sigma allowance
        x = normalize_energy(make_qam_product(4, 2), 4.0)
        ch = ChannelSpec.from_ebn0_db(8.0)
        mean, stderr = r0_expected_mc(x, ch, 10**4, seed=0)
        assert mean >= cutoff_rate(x, ch) - 3.0 * stderr

    def test_rotated_64qam_4d_carries_the_product_set(self):
        x = rotate(normalize_energy(make_qam_product(64, 2), 12.0),
                   rotation_at(skew_family(2), math.radians(30.0)))
        z, counts = x.pair_differences
        assert len(z) == 15**4 - 1  # not the 4096 * 4095 raw pairs
        assert counts.sum() == x.m * (x.m - 1)

    def test_rotated_64qam_4d_values_are_pinned(self):
        # 1000 fades in 50 passes of 20; each fade's rate has the same bits
        # in any batch, so these change with the draw or the sum, not the passes
        x = rotate(normalize_energy(make_qam_product(64, 2), 12.0),
                   rotation_at(skew_family(2), math.radians(30.0)))
        got = r0_expected_mc(x, ChannelSpec.from_ebn0_db(8.0), 1000, seed=3)
        assert got == (5.931350376876902, 0.04102831297037765)

    def test_rejects_empty_run(self):
        x = make_qam_product(4, 1)
        with pytest.raises(ValueError):
            r0_expected_mc(x, ChannelSpec.from_ebn0_db(5.0), 0, seed=0)


class TestLocalCutoffRate:
    def test_infinite_radius_equals_global(self):
        x = normalize_energy(make_qam_product(16, 1), 4.0)
        ch = ChannelSpec.from_ebn0_db(8.0)
        assert local_cutoff_rate(x, math.inf, ch) == cutoff_rate(x, ch)

    def test_non_increasing_in_radius(self):
        x = normalize_energy(make_qam_product(16, 1), 4.0)
        ch = ChannelSpec.from_ebn0_db(8.0)
        radii = [1.0, 2.0, 3.0, 5.0, math.inf]
        vals = [local_cutoff_rate(x, r, ch) for r in radii]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    @given(st.integers(0, 300), st.floats(0.5, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_oracle(self, seed, r):
        rng = np.random.default_rng(seed)
        x = random_constellation(rng, 8, 3)
        ch = ChannelSpec.from_ebn0_db(8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyBallWarning)
            got = local_cutoff_rate(x, r, ch)
        assert got == pytest.approx(
            naive_local_cutoff_rate(x.points, 3, r, ch.N0), rel=1e-12
        )

    def test_rejects_nonpositive_radius(self):
        # NaN is no radius either: it is not > 0, though not <= 0
        x, ch = make_qam_product(4, 1), ChannelSpec.from_ebn0_db(5.0)
        for r in (0.0, -1.0, -math.inf, math.nan):
            for metric in (lambda: local_cutoff_rate(x, r, ch), lambda: diversity_order(x, r),
                           lambda: min_product_distance(x, r)):
                with pytest.raises(ValueError, match="radius must be positive"):
                    metric()


class TestDiversityOrder:
    def test_unrotated_product_has_order_one(self):
        assert diversity_order(make_qam_product(4, 2)) == 1

    def test_rotated_product_is_fully_diverse_at_radius_two(self):
        x = normalize_energy(make_qam_product(4, 2), 4.0)
        q = rotation_at(skew_family(2), 0.5)
        assert diversity_order(rotate(x, q), 2.0) == 4

    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = random_constellation(rng, 8, 3)
        for r in (1.5, math.inf):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EmptyBallWarning)
                got = diversity_order(x, r)
            assert got == naive_diversity(x.points, r)

    def test_empty_ball_warns_and_returns_dimension(self):
        x = make_qam_product(4, 1)
        with pytest.warns(EmptyBallWarning):
            assert diversity_order(x, 0.1) == 2


class TestMinProductDistance:
    def test_frozen_2d_4qam(self):
        # nearest pairs differ in one coordinate by 2, so d_p = 2
        dp, dpn = min_product_distance(make_qam_product(4, 1))
        assert dp == pytest.approx(2.0, abs=1e-12)
        assert dpn == pytest.approx(math.sqrt(2.0), abs=1e-12)

    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = random_constellation(rng, 8, 2)
        dp, _ = min_product_distance(x)
        assert dp == pytest.approx(naive_min_product_distance(x.points, math.inf), rel=1e-12)

    def test_empty_ball_sentinel(self):
        x = make_qam_product(4, 1)
        with pytest.warns(EmptyBallWarning):
            dp, dpn = min_product_distance(x, 0.1)
        assert dp == math.inf and dpn == math.inf


class TestHighSnrSum:
    def test_matches_naive_on_fully_diverse_pairs(self, rng):
        x = random_constellation(rng, 8, 2)
        ch = ChannelSpec.from_ebn0_db(20.0)
        s = 0.0
        for i in range(8):
            for j in range(8):
                if i != j:
                    d = x.points[i] - x.points[j]
                    s += float(np.prod(8.0 * ch.N0 / d**2))
        assert high_snr_sum(x, ch) == pytest.approx(s, rel=1e-12)

    def test_skips_zero_coordinates(self):
        x = make_qam_product(4, 1)
        ch = ChannelSpec.from_ebn0_db(10.0)
        # pairs differing in one coordinate contribute a single factor
        expected = 8 * (8 * ch.N0 / 4.0) + 4 * (8 * ch.N0 / 4.0) ** 2
        assert high_snr_sum(x, ch) == pytest.approx(expected, rel=1e-12)


class TestLocalDiversityCriterion:
    def test_generic_family_rotation_is_fully_diverse(self):
        q = rotation_at(skew_family(2), 0.5)
        assert is_locally_fully_diverse(q)

    def test_identity_is_not(self):
        q = rotation_at(skew_family(2), 0.0)
        assert not is_locally_fully_diverse(q)


class TestReport:
    def test_report_consistency(self, monkeypatch):
        x = normalize_energy(make_qam_product(4, 2), 4.0)
        ch = ChannelSpec.from_ebn0_db(10.0)
        rep = compute_report(x, ch)
        assert rep.cutoff_rate == cutoff_rate(x, ch)
        assert rep.local_cutoff_rate[math.inf] == rep.cutoff_rate
        doc = rep.to_jsonable()
        assert doc["diversity_order"]["inf"] == 1
        assert "inf" in doc["local_cutoff_rate"]

        # every field equals its standalone metric, empty ball included
        xr = rotate(normalize_energy(make_qam_product(16, 1), 4.0),
                    rotation_at(skew_family(1), 0.4))
        radii = (2.0, math.inf, 1.0)  # nearest neighbors are 1.26 apart
        with pytest.warns(EmptyBallWarning) as got:
            rep = compute_report(xr, ch, radii=radii)
        with pytest.warns(EmptyBallWarning) as want:
            alone = {r: (local_cutoff_rate(xr, r, ch), diversity_order(xr, r),
                         min_product_distance(xr, r)) for r in radii}
        assert [str(w.message) for w in got] == [str(w.message) for w in want]
        assert rep.cutoff_rate == cutoff_rate(xr, ch)
        for r in radii:
            assert rep.local_cutoff_rate[r] == alone[r][0]
            assert rep.diversity[r] == alone[r][1]
            assert (rep.min_product[r], rep.min_product_normalized[r]) == alone[r][2]

        # one multiset build per report, whatever the number of radii: that of
        # the rotated constellation itself, from its product frame
        calls = []
        build = difference_multiset
        monkeypatch.setattr("rotcon.metrics.difference_multiset",
                            lambda *a, **k: calls.append(1) or build(*a, **k))
        xr = rotate(normalize_energy(make_qam_product(16, 1), 4.0),
                    rotation_at(skew_family(1), 0.4))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyBallWarning)
            compute_report(xr, ch, radii=radii)
        assert len(calls) == 1

    def test_report_sums_the_whole_multiset_once(self, monkeypatch):
        x = rotate(normalize_energy(make_qam_product(16, 2), 8.0),
                   rotation_at(skew_family(2), 0.5))
        ch = ChannelSpec.from_ebn0_db(10.0)
        rows = []
        monkeypatch.setattr("rotcon.metrics.pair_sum_rational",
                            lambda z, *a: rows.append(len(z)) or pair_sum_rational(z, *a))
        rep = compute_report(x, ch, (2.0, math.inf))
        full = len(x.pair_differences[0])
        assert len(rows) == 2 and rows.count(full) == 1
        assert rep.cutoff_rate == rep.local_cutoff_rate[math.inf]

    def test_report_peak_is_near_the_multiset(self):
        # over the cached Z, a report holds at most one array of its size
        # and the row products or ball mask beside it
        x = make_qam_product(64, 2)
        x = rotate(normalize_energy(x, float(x.q_bits)), rotation_at(skew_family(2), 0.5))
        z, _ = x.pair_differences
        tracemalloc.start()
        try:
            compute_report(x, ChannelSpec.from_ebn0_db(10.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * z.nbytes

    def test_report_restricts_each_radius_once(self, monkeypatch):
        x = rotate(normalize_energy(make_qam_product(16, 2), 8.0),
                   rotation_at(skew_family(2), 0.5))
        calls = []
        monkeypatch.setattr("rotcon.metrics._ball",
                            lambda *a: calls.append(a[1]) or _ball(*a))
        compute_report(x, ChannelSpec.from_ebn0_db(10.0), (2.0, 3.0, math.inf))
        assert calls == [2.0, 3.0, math.inf]

    @pytest.mark.parametrize("metric", [
        lambda x: high_snr_sum(x, ChannelSpec.from_ebn0_db(10.0)),
        diversity_order,
        min_product_distance,
    ], ids=["high_snr_sum", "diversity_order", "min_product_distance"])
    def test_distance_functionals_peak_near_one_column(self, metric):
        # the (L, d_p) profile is taken one coordinate at a time: beside L and
        # d_p, one column's magnitudes, its mask and its factors
        x = make_qam_product(64, 2)
        x = rotate(normalize_energy(x, float(x.q_bits)), rotation_at(skew_family(2), 0.5))
        z, _ = x.pair_differences
        tracemalloc.start()
        try:
            metric(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * z.nbytes

    def test_ball_sums_squares_without_a_temporary_the_size_of_z(self):
        # the squared norms and one column's squares: half of Z
        x = make_qam_product(64, 2)
        x = rotate(normalize_energy(x, float(x.q_bits)),
                   rotation_at(skew_family(2), math.radians(30.0)))
        z, _ = x.pair_differences
        tracemalloc.start()
        try:
            _ball(x, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * z.nbytes


class TestThreadIndependence:
    def test_rates_have_the_same_bits_at_one_and_two_blas_threads(self):
        # every pair sum is numpy's pairwise sum, not a BLAS dot product that
        # OpenBLAS splits across threads, so these outputs match to the bit
        code = """
import json, math
import rotcon as rc
from rotcon.metrics import compute_report
x = rc.rotate(rc.normalize_energy(rc.make_qam_product(64, 2), 12.0),
              rc.rotation_at(rc.skew_family(2), math.radians(30.0)))
ch = rc.ChannelSpec.from_ebn0_db(14.0)
print(repr(rc.cutoff_rate(x, ch)), repr(rc.high_snr_sum(x, ch)))
print(json.dumps(compute_report(x, ch).to_jsonable()))
print(rc.grid_search_t(x, ch, grid_step=1e-2, keep_profile=True).profile)
"""
        src = os.path.dirname(os.path.dirname(rotcon.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                       capture_output=True, text=True, check=True,
                                       timeout=120).stdout)
        assert outs[0].count("\n") == 3 and outs[0] == outs[1]
