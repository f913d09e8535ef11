"""Tests for the fading simulator, ML decoding, and BER Monte Carlo."""

import logging
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rotcon.channel
from rotcon import (
    ChannelSpec,
    Constellation,
    NuqamParams,
    ber_monte_carlo,
    make_nuqam,
    make_qam_product,
    ml_decode,
    normalize_energy,
    rotate,
    rotation_at,
    sample_fade,
    skew_family,
    transmit,
)
from rotcon.channel import BerRow, FadeVector, wilson_interval
from rotcon.constellation import ProductFrame, load, save
from rotcon.metrics import compute_report

from conftest import random_constellation


def _brute_argmin(x, y, h):
    """The brute-force decision: argmin of the expanded metric over all m points."""
    return np.argmin((h**2) @ (x.points**2).T - 2.0 * (y * h) @ x.points.T, axis=1)


def _stream(x, db, symbols, seed):
    """Seeded (y, h) chunks of 2048 symbols, drawn as `ber_monte_carlo` draws them."""
    rng = np.random.default_rng(seed)
    ch = ChannelSpec.from_ebn0_db(db)
    for lo in range(0, symbols, 2048):
        c = min(2048, symbols - lo)
        idx = rng.integers(0, x.m, size=c)
        h = sample_fade((c, x.n), rng)
        yield idx, transmit(x.points[idx], h, ch, rng), h


def _qam(M, half_dims, t_deg=None):
    x = make_qam_product(M, half_dims)
    x = normalize_energy(x, float(x.q_bits))
    if t_deg is None:
        return x
    k = (2 * half_dims).bit_length() - 1
    return rotate(x, rotation_at(skew_family(k), math.radians(t_deg)))


def _unequal_axes():
    """A rotated 2 x 4 x 8 x 2 grid: 128 labeled points on axes of different level counts."""
    lv = [np.arange(1 - k, k, 2, dtype=float) for k in (2, 4, 8, 2)]
    u = np.stack(np.meshgrid(*lv, indexing="ij"), axis=-1).reshape(-1, 4)
    x = normalize_energy(Constellation(u, [format(i, "07b") for i in range(128)]), 7.0)
    return rotate(x, rotation_at(skew_family(2), math.radians(30.0)))


def _saved_and_loaded(x):
    with tempfile.TemporaryDirectory() as d:
        save(x, Path(d) / "x.json")
        return load(Path(d) / "x.json")


def _assert_decisions_match(x, db, symbols, seed=0):
    errors = 0
    for idx, y, h in _stream(x, db, symbols, seed):
        dec = ml_decode(x, y, h)
        assert np.array_equal(dec, _brute_argmin(x, y, h.h))
        errors += int(np.count_nonzero(dec != idx))
    assert errors > 0  # the comparison sees decoding errors


class TestSampleFade:
    def test_shape_and_sign(self):
        h = sample_fade(8, np.random.default_rng(0))
        assert h.h.shape == (8,)
        assert np.all(h.h >= 0)

    def test_unit_second_moment(self):
        rng = np.random.default_rng(42)
        draws = np.concatenate([sample_fade(100, rng).h for _ in range(200)])
        assert np.mean(draws**2) == pytest.approx(1.0, abs=0.02)

    def test_fade_vector_validation(self):
        # a NaN fade would otherwise decode silently as point 0
        for bad in (-0.5, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                FadeVector(np.array([1.0, bad]))
            with pytest.raises(ValueError):
                FadeVector(np.array([[1.0, 0.5], [0.5, bad]]))

    def test_batch_equals_successive_single_draws(self):
        batch = sample_fade((5, 4), np.random.default_rng(9))
        rng = np.random.default_rng(9)
        singles = np.stack([sample_fade(4, rng).h for _ in range(5)])
        assert batch.h.shape == (5, 4)
        assert np.array_equal(batch.h, singles)


class TestTransmit:
    def test_zero_noise_limit(self):
        x = np.array([1.0, -1.0, 3.0])
        h = FadeVector(np.array([0.5, 1.5, 1.0]))
        ch = ChannelSpec(N0=1e-30)
        y = transmit(x, h, ch, np.random.default_rng(0))
        assert np.allclose(y, h.h * x, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            transmit(np.ones(2), FadeVector(np.ones(3)), ChannelSpec(N0=0.1),
                     np.random.default_rng(0))


class TestMlDecode:
    def test_unit_fade_is_nearest_neighbor(self):
        x = make_qam_product(16, 1)
        h = FadeVector(np.ones(2))
        for i in range(x.m):
            y = x.points[i] + 0.3
            nearest = int(np.argmin(np.sum((x.points - y) ** 2, axis=1)))
            assert ml_decode(x, y, h) == nearest

    def test_faded_metric(self):
        x = make_qam_product(4, 1)
        h = FadeVector(np.array([2.0, 0.1]))
        y = np.array([1.9, 0.5])
        d = np.sum((y - h.h * x.points) ** 2, axis=1)
        assert ml_decode(x, y, h) == int(np.argmin(d))

    def test_tie_breaks_to_lowest_index(self):
        x = make_qam_product(4, 1)
        h = FadeVector(np.ones(2))
        assert ml_decode(x, np.zeros(2), h) == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_received_vectors(self, bad):
        # the sphere search of a product frame and brute force alike
        for x in (_qam(16, 2, 30.0), random_constellation(np.random.default_rng(2), 16, 4)):
            y = np.zeros((2, 4))
            y[1, 0] = bad
            with pytest.raises(ValueError, match="finite"):
                ml_decode(x, y[1], FadeVector(np.ones(4)))
            with pytest.raises(ValueError, match="finite"):
                ml_decode(x, y, FadeVector(np.ones((2, 4))))

    def test_rejects_mis_sized_received_vectors_and_fades(self):
        # the sphere search of a product frame and brute force alike; a fade
        # is (n,) or the received vector's shape, never broadcast otherwise
        for x in (_qam(16, 2, 60.0), random_constellation(np.random.default_rng(2), 16, 4)):
            p = x.points
            for y, h in [(p[5], np.ones(1)), (p[5], np.ones(3)), (p[5], np.ones((1, 4))),
                         (p[:3], np.ones((1, 4))), (p[:3], np.ones((3, 1))), (p[:3], np.ones(3)),
                         (p[:3], np.ones((2, 4))), (p[5, :3], np.ones(3)), (p[0, 0], np.ones(4)),
                         (p[None, :3], np.ones(4))]:
                with pytest.raises(ValueError, match="shape|received vector must be"):
                    ml_decode(x, y, FadeVector(h))
            assert ml_decode(x, p[5], FadeVector(np.ones(4))) == 5
            assert ml_decode(x, p[:3], FadeVector(np.ones(4))).tolist() == [0, 1, 2]
            assert ml_decode(x, p[:3], FadeVector(np.ones((3, 4)))).tolist() == [0, 1, 2]

    def test_batch_matches_direct_argmin(self):
        x = normalize_energy(make_qam_product(16, 2), 4.0)
        x = rotate(x, rotation_at(skew_family(2), math.radians(30.0)))
        rng = np.random.default_rng(5)
        idx = rng.integers(0, x.m, size=2048)
        h = sample_fade((2048, x.n), rng)
        y = transmit(x.points[idx], h, ChannelSpec.from_ebn0_db(10.0), rng)
        dec = ml_decode(x, y, h)
        direct = np.argmin(np.sum((y[:, None, :] - h.h[:, None, :] * x.points) ** 2, axis=2),
                           axis=1)
        assert np.array_equal(dec, direct)
        assert np.count_nonzero(dec != idx) > 0  # the check sees decoding errors
        assert [ml_decode(x, y[i], FadeVector(h.h[i])) for i in range(len(y))] == dec.tolist()


_ULP = 2.0**-52
_ROTATED_NUQAM = rotate(make_nuqam(NuqamParams((0.3, 1.0, 1.4, 2.5))),
                        rotation_at(skew_family(1), math.radians(20.0)))


class TestSphereDecoder:
    """Decisions of the product-frame search equal the brute-force argmin."""

    @pytest.fixture
    def no_brute_force(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("brute force on a product constellation")
        monkeypatch.setattr("rotcon.channel._brute_force", refuse)

    @pytest.mark.parametrize("db", [10.0, 14.0, 18.0])
    @pytest.mark.parametrize("M", [16, 64])
    def test_rotated_4d_qam(self, M, db, no_brute_force):
        _assert_decisions_match(_qam(M, 2, 60.0), db, 10**5, seed=M)

    @pytest.mark.parametrize("x", [
        _qam(16, 2),
        _qam(1024, 1, 30.0),
        rotate(_qam(64, 2, 60.0), rotation_at(skew_family(2), math.radians(25.0))),
        rotate(make_nuqam(NuqamParams((0.3, 1.0, 1.4, 2.5))),
               rotation_at(skew_family(1), math.radians(20.0))),
        normalize_energy(_qam(16, 2, 30.0), 7.0),
        _saved_and_loaded(_qam(64, 2, 30.0)),
    ], ids=["unrotated-16qam-4d", "rotated-1024qam-2d", "64qam-4d-rotated-twice",
            "rotated-nuqam", "renormalized-rotated-16qam-4d", "loaded-rotated-64qam-4d"])
    @pytest.mark.parametrize("db", [6.0, 16.0])
    def test_other_products(self, x, db, no_brute_force):
        _assert_decisions_match(x, db, 20000)

    def test_frame_is_carried_through_rotations(self):
        # rotations compose into the frame's one rotation; rescaling scales
        # its levels; the index table is shared throughout
        x = _qam(64, 2)
        q1 = rotation_at(skew_family(2), math.radians(60.0))
        q2 = rotation_at(skew_family(2), math.radians(25.0))
        y = rotate(rotate(x, q1), q2)
        f = y.frame
        assert f.levels is x.frame.levels and f.index is x.frame.index
        assert np.array_equal(rotate(x, q1).frame.rotation, q1.entries)
        assert np.array_equal(f.rotation, q2.entries @ q1.entries)
        u = np.stack(np.meshgrid(*f.levels, indexing="ij"), axis=-1).reshape(-1, 4)
        assert np.allclose(y.points[f.index.reshape(-1)], u @ f.rotation.T,
                           rtol=0, atol=1e-14)
        g = normalize_energy(y, 2.0).frame
        assert g.index is f.index and g.rotation is f.rotation
        scale = math.sqrt(2.0 / y.energy)
        assert all(np.array_equal(a, b * scale) for a, b in zip(g.levels, f.levels))

    def test_product_out_of_product_order(self, no_brute_force):
        # permuted points and labels: `detect` finds the frame, whose index
        # table maps each grid cell to its point
        x = _qam(16, 2)
        perm = np.random.default_rng(6).permutation(x.m)
        xp = Constellation(x.points[perm], [x.labels[i] for i in perm])
        assert xp.frame is not None
        assert not np.array_equal(xp.frame.index.reshape(-1), np.arange(x.m))
        for db in (10.0, 18.0):
            _assert_decisions_match(xp, db, 20000)
        q = rotation_at(skew_family(2), math.radians(30.0))
        ch = ChannelSpec.from_ebn0_db(10.0)
        for a, b in ((x, xp), (rotate(x, q), rotate(xp, q))):
            assert compute_report(b, ch).to_jsonable() == compute_report(a, ch).to_jsonable()

    @pytest.mark.parametrize("t_deg, erased", [(None, 0.0), (60.0, 0.0), (None, 1e-170),
                                               (60.0, 1e-170)],
                             ids=["None", "60.0", "None-1e-170", "60.0-1e-170"])
    def test_zero_fade_entry(self, t_deg, erased):
        # an erased coordinate makes points that differ only there tie exactly
        # (Q(60 deg) is not fully diverse), and brute force breaks the tie; a
        # fade whose square underflows erases its coordinate as a zero does
        x = _qam(16, 2, t_deg)
        rng = np.random.default_rng(3)
        idx = rng.integers(0, x.m, size=4096)
        h = sample_fade((4096, x.n), rng).h
        h[::3, 1] = erased
        h[::7, 3] = erased
        y = transmit(x.points[idx], FadeVector(h), ChannelSpec.from_ebn0_db(12.0), rng)
        dec = ml_decode(x, y, FadeVector(h))
        assert np.array_equal(dec, _brute_argmin(x, y, h))
        assert ml_decode(x, y[0], FadeVector(h[0])) == dec[0]

    @pytest.mark.parametrize("x, symbols", [
        (_qam(16, 2, 60.0), 2048), (_qam(64, 2, 60.0), 2048),
        (_qam(4, 4, 45.0), 1024), (_qam(16, 4, 45.0), 256),
    ], ids=["16qam-4d", "64qam-4d", "4qam-8d", "16qam-8d"])
    @pytest.mark.parametrize("db", [10.0, 26.0])
    def test_deep_fades(self, x, symbols, db, monkeypatch):
        # one coordinate of every row, and a second of every other row, faded
        # by 1e-3 ... 1e-15: the Gram matrix's condition number reaches 1e30.
        # Where a decision differs from brute force's, the two points' metrics,
        # recomputed in long double, agree within 1e-15 of the row's scale (a
        # near-tie); and the search decides every row faded no deeper than 1e-6
        brute_fades = []
        brute = rotcon.channel._brute_force
        monkeypatch.setattr("rotcon.channel._brute_force",
                            lambda *a: brute_fades.append(a[2]) or brute(*a))
        rng = np.random.default_rng(7)
        idx = rng.integers(0, x.m, size=symbols)
        h = sample_fade((symbols, x.n), rng).h
        coord = np.argsort(rng.random((symbols, x.n)), axis=1)
        rows = np.arange(symbols)
        h[rows, coord[:, 0]] *= 10.0 ** -rng.integers(3, 16, size=symbols)
        h[rows[::2], coord[::2, 1]] *= 10.0 ** -rng.integers(3, 16, size=len(rows[::2]))
        y = transmit(x.points[idx], FadeVector(h), ChannelSpec.from_ebn0_db(db), rng)
        dec = ml_decode(x, y, FadeVector(h))
        best = np.concatenate([_brute_argmin(x, y[lo:lo + 64], h[lo:lo + 64])
                               for lo in range(0, symbols, 64)])
        d = np.flatnonzero(dec != best)
        p, yd, hd = x.points.astype(np.longdouble), y[d].astype(np.longdouble), h[d]

        def metric(i):
            return np.sum((yd - hd * p[i[d]]) ** 2, axis=1)

        scale = np.sum(y * y, axis=1) + np.max(h * h, axis=1) * np.max(np.sum(x.points**2, axis=1))
        assert np.all(np.abs(metric(dec) - metric(best)) <= 1e-15 * scale[d])
        assert all(np.all(np.min(f, axis=1) < 1e-6) for f in brute_fades)

    @pytest.fixture
    def batch_sizes(self, monkeypatch):
        """The batch size of every `_sphere_decode` call."""
        sizes = []
        search = rotcon.channel._sphere_decode
        monkeypatch.setattr("rotcon.channel._sphere_decode",
                            lambda *a: sizes.append(len(a[2])) or search(*a))
        return sizes

    @pytest.fixture
    def descents(self, monkeypatch):
        """(first coordinate, symbols) of every `_descend` call, each part of a split included."""
        calls = []
        descend = rotcon.channel._descend
        monkeypatch.setattr("rotcon.channel._descend",
                            lambda *a: calls.append((len(a[8]) - 1, len(np.unique(a[5])))) or
                            descend(*a))
        return calls

    def test_batches_over_the_byte_budget_decode_in_halves(self, batch_sizes, descents,
                                                          monkeypatch):
        # at -10 dB most candidates survive; a 64 KiB budget splits the
        # survivors of each chunk by symbol, down to a few symbols a part,
        # each part going on from the coordinate where it split, and the
        # decisions stay brute force's
        monkeypatch.setattr("rotcon.channel._DECODE_BYTES", 1 << 16)
        _assert_decisions_match(_qam(64, 2, 30.0), -10.0, 4096, seed=1)
        assert batch_sizes == [2048, 2048]  # one factorization a chunk: nothing restarts
        splits = (len(descents) - len(batch_sizes)) // 2
        assert splits > 2
        assert min(k for _, k in descents) < 64
        assert {j for j, _ in descents} > {3}  # parts go on from coordinates below the first

    @pytest.mark.parametrize("budget", [None, 1 << 16], ids=["unsplit", "64KiB"])
    def test_unequal_axes(self, budget, descents, no_brute_force, monkeypatch):
        # each level's flat candidate index is divided by its own axis's level
        # count (2, 4, 8 and 2 here); under a 64 KiB budget every chunk splits
        if budget is not None:
            monkeypatch.setattr("rotcon.channel._DECODE_BYTES", budget)
        x = _unequal_axes()
        assert [len(lv) for lv in x.frame.levels] == [2, 4, 8, 2]
        for db in (0.0, 10.0, 20.0):
            descents.clear()
            _assert_decisions_match(x, db, 4096, seed=int(db))
            assert (len(descents) > 2) == (budget is not None)

    @pytest.mark.parametrize("M", [16, 64])
    def test_the_byte_budget_holds_a_chunk_at_10_db(self, M, batch_sizes):
        _assert_decisions_match(_qam(M, 2, 30.0), 10.0, 4096, seed=2)
        assert batch_sizes == [2048, 2048]

    @pytest.mark.parametrize("M", [16, 64])
    def test_a_chunk_at_10_db_is_searched_unsplit(self, M, descents):
        _assert_decisions_match(_qam(M, 2, 30.0), 10.0, 4096, seed=2)
        assert [j for j, _ in descents] == [3, 3]

    @pytest.mark.parametrize("x, db", [
        *[(_qam(M, 2, 60.0), db) for M in (16, 64) for db in (10.0, 14.0, 18.0, 26.0)],
        *[(_ROTATED_NUQAM, db) for db in (6.0, 16.0, 26.0)],
    ], ids=[*[f"{M}qam-4d-{db:g}dB" for M in (16, 64) for db in (10, 14, 18, 26)],
            *[f"rotated-nuqam-{db:g}dB" for db in (6, 16, 26)]])
    def test_certified_and_searched_symbols_decide_as_brute_force(self, x, db, descents,
                                                                 no_brute_force):
        # a symbol the Babai pass certifies skips the search; the rest are
        # searched, and every decision is brute force's
        _assert_decisions_match(x, db, 8192, seed=3)
        searched = sum(k for _, k in descents)
        assert len(descents) == 4  # one search a chunk
        assert 0 < searched < 8192  # both kinds occur

    @pytest.mark.parametrize("lv", [
        [0.0, 1.0 + _ULP, 1.0 + 2 * _ULP, 10.0],
        [-3.0, 1.0, 1.0 + _ULP, 3.0],
        [0.5, 1.0 + _ULP, 1.0 + 2 * _ULP, 1.0 + 3 * _ULP],
    ], ids=["midpoint-rounds-up", "midpoint-rounds-down", "three-an-ulp-apart"])
    def test_levels_an_ulp_apart(self, lv):
        # points an ulp apart tie or nearly so, and the midpoint rule may pick
        # a Babai level that is not the nearest; a certified symbol must still
        # be brute force's decision, ties to the lowest index.  On one axis the
        # search's metric has brute force's bits exactly (a single product per
        # term), so the decisions are compared whatever the ties.
        lv = np.array(lv)
        x = Constellation(lv[:, None], frame=ProductFrame((lv,), np.arange(4), np.eye(1)))
        for db in (0.0, 20.0, 300.0):
            rng = np.random.default_rng(int(db))
            idx = rng.integers(0, 4, size=8192)
            h = sample_fade((8192, 1), rng)
            y = transmit(x.points[idx], h, ChannelSpec(10.0 ** (-db / 10.0)), rng)
            y[::4] = h.h[::4] * x.points[idx[::4]]  # noiseless rows: e/r at a level
            assert np.array_equal(ml_decode(x, y, h), _brute_argmin(x, y, h.h))

    def test_non_product_takes_brute_force(self, monkeypatch):
        x = random_constellation(np.random.default_rng(4), 64, 4)
        assert x.frame is None
        calls = []
        brute = rotcon.channel._brute_force
        monkeypatch.setattr("rotcon.channel._brute_force",
                            lambda *a: calls.append(1) or brute(*a))
        _assert_decisions_match(x, 10.0, 4096)
        assert len(calls) == 2

    def test_brute_force_holds_the_byte_budget(self, monkeypatch):
        # a 1 MiB budget takes each chunk in blocks of 16 rows, at most two
        # (16, 4096) metric arrays at a time; unblocked, a chunk needs 128 MiB
        monkeypatch.setattr("rotcon.channel._DECODE_BYTES", 1 << 20)
        x = random_constellation(np.random.default_rng(8), 4096, 2)
        assert x.frame is None
        (_, y, h), = _stream(x, 10.0, 2048, seed=8)
        tracemalloc.start()
        try:
            dec = ml_decode(x, y, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(dec, _brute_argmin(x, y, h.h))
        assert peak < 4 << 20


class TestWilson:
    def test_no_errors(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0
        assert 0.0 < hi < 0.01

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(37, 1000)
        assert lo < 0.037 < hi

    def test_degenerate_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestBerMonteCarlo:
    def test_deterministic_given_seed(self):
        x = normalize_energy(make_qam_product(4, 1), 2.0)
        specs = [ChannelSpec.from_ebn0_db(10.0)]
        a = ber_monte_carlo(x, specs, min_bits=10**4, seed=11)
        b = ber_monte_carlo(x, specs, min_bits=10**4, seed=11)
        assert a.rows == b.rows

    def test_pinned_counts(self):
        # pinned: a change to the draw order, the fade or noise arithmetic or
        # the decision metric moves them; 2500 symbols per point span a full
        # and a partial chunk
        x = normalize_energy(make_qam_product(16, 2), 4.0)
        x = rotate(x, rotation_at(skew_family(2), math.radians(30.0)))
        rep = ber_monte_carlo(x, [ChannelSpec.from_ebn0_db(8.0), ChannelSpec.from_ebn0_db(12.0)],
                              min_bits=20000, seed=5)
        assert [(r.bit_errors, r.symbol_errors) for r in rep.rows] == [(3319, 1744), (1723, 1001)]

    @pytest.mark.parametrize("x", [
        _qam(16, 2, 30.0),
        Constellation(random_constellation(np.random.default_rng(5), 64, 4).points,
                      make_qam_product(64, 1).labels),
    ], ids=["rotated-16qam-4d", "frameless"])
    def test_bit_errors_are_hamming_distances(self, x, monkeypatch):
        # every symbol sent and decided, seen at `transmit` and `ml_decode`;
        # the bit errors are the naive Hamming count over their label strings
        where = {p.tobytes(): i for i, p in enumerate(x.points)}
        sent, decided = [], []
        send, decode = rotcon.channel.transmit, rotcon.channel.ml_decode

        def transmit_spy(p, *args):
            sent.extend(where[q.tobytes()] for q in p)
            return send(p, *args)

        def decode_spy(*args):
            dec = decode(*args)
            decided.extend(dec.tolist())
            return dec

        monkeypatch.setattr("rotcon.channel.transmit", transmit_spy)
        monkeypatch.setattr("rotcon.channel.ml_decode", decode_spy)
        for db in (2.0, 12.0):
            sent.clear()
            decided.clear()
            (row,) = ber_monte_carlo(x, [ChannelSpec.from_ebn0_db(db)], min_bits=30000, seed=3).rows
            pairs = list(zip(sent, decided))
            assert len(sent) == len(decided) == row.symbols_simulated
            hamming = sum(a != b for i, d in pairs for a, b in zip(x.labels[i], x.labels[d]))
            assert row.bit_errors == hamming > 0
            assert row.symbol_errors == sum(i != d for i, d in pairs)

    def test_seed_changes_outcome(self):
        x = normalize_energy(make_qam_product(4, 1), 2.0)
        specs = [ChannelSpec.from_ebn0_db(10.0)]
        a = ber_monte_carlo(x, specs, min_bits=10**4, seed=1)
        b = ber_monte_carlo(x, specs, min_bits=10**4, seed=2)
        assert a.rows[0].bit_errors != b.rows[0].bit_errors

    def test_bit_budget_honored(self):
        x = normalize_energy(make_qam_product(16, 1), 4.0)
        rep = ber_monte_carlo(x, [ChannelSpec.from_ebn0_db(12.0)], min_bits=10**4)
        assert rep.rows[0].bits_simulated >= 10**4

    def test_matches_rayleigh_bpsk_closed_form(self):
        # each coordinate of normalized 2D 4-QAM is an independent +-1 channel:
        # BER = (1 - sqrt(g/(1+g))) / 2 with g = 1/(2 N0)
        x = normalize_energy(make_qam_product(4, 1), 2.0)
        rep = ber_monte_carlo(x, [ChannelSpec.from_ebn0_db(10.0)], min_bits=10**6, seed=0)
        expected = 0.04356453541236155
        lo, hi = rep.rows[0].ber_wilson(z=3.5)
        assert lo <= expected <= hi

    def test_requires_labels(self):
        from rotcon import Constellation

        x = Constellation(np.array([[1.0, 1.0], [-1.0, -1.0]]))
        with pytest.raises(ValueError):
            ber_monte_carlo(x, [ChannelSpec.from_ebn0_db(10.0)])

    def test_brute_force_is_logged_once(self, caplog):
        pts = random_constellation(np.random.default_rng(2), 16, 2).points
        x = Constellation(pts, make_qam_product(16, 1).labels)
        specs = [ChannelSpec.from_ebn0_db(10.0), ChannelSpec.from_ebn0_db(14.0)]
        with caplog.at_level(logging.INFO, logger="rotcon"):
            ber_monte_carlo(x, specs, min_bits=20000)
            ber_monte_carlo(_qam(16, 1, 30.0), specs, min_bits=20000)  # searched: no record
        records = [r for r in caplog.records if r.name == "rotcon"]
        assert [r.levelno for r in records] == [logging.INFO]
        assert "brute-force" in records[0].getMessage()
        assert "m=16, n=2" in records[0].getMessage()

    def test_rejects_tiny_budget(self):
        x = make_qam_product(4, 1)
        with pytest.raises(ValueError):
            ber_monte_carlo(x, [ChannelSpec.from_ebn0_db(10.0)], min_bits=100)

    def test_csv_export(self, tmp_path):
        x = normalize_energy(make_qam_product(4, 1), 2.0)
        rep = ber_monte_carlo(x, [ChannelSpec.from_ebn0_db(8.0)], min_bits=10**4)
        path = tmp_path / "ber.csv"
        rep.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "ebn0_db,bits,bit_errors,ber,ber_lo,ber_hi,symbol_errors,ser,seed"

    def test_row_rates(self):
        row = BerRow(ebn0_db=10.0, bits_simulated=1000, bit_errors=17,
                     symbols_simulated=500, symbol_errors=12, seed=0)
        assert row.ber == 0.017
        assert row.ser == 0.024
