"""Rayleigh fast-fading channel: fade draws, ML decoding, BER and R0 bounds.

The channel acts per real coordinate: y_i = h_i x_i + z_i with h_i Rayleigh
(E[h^2] = 1, a fresh independent fade per transmitted vector) and z_i
Gaussian with variance N0.  Only this module knows the fading model:
`sample_fade`, `transmit`, `ml_decode` and the fade-conditioned cutoff rate
`r0_conditional` take one vector or a (c, n) batch; the BER Monte Carlo is
built from the first three, and `r0_expected_mc` is the mean of
`r0_conditional` over one `sample_fade` draw.  Monte Carlo bit/symbol error
counting is deterministic for a given seed: the random stream is split into
fixed-size substreams per Eb/N0 point and per chunk, so results do not
depend on how the work is partitioned.

A constellation with a product frame (an axis product such as QAM or
NUQAM, or any rotation, rescaling or saved copy of one) is decoded by an
exact breadth-first sphere search over its level box, a few candidates per
symbol, on the Cholesky factor of each symbol's faded Gram matrix.
`ml_decode` gives every row the search leaves (a fade whose square is zero,
a factor that is not finite), and every row of any other point set, to
brute force over all m points, its one brute-force site.  The search's
Babai pass certifies the symbols for which the search would keep the Babai
path alone (most of them at high SNR), and those skip the search; of the
survivors of the rest, only those within the radius's rounding slack of a
symbol's best reach the brute-force metric.  A batch whose candidates at
some level would pass a byte budget is split there by symbol, and each part
goes on from that level; brute force takes its rows in blocks under the
same budget.
"""

from __future__ import annotations

import csv
import logging
import os
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, ProductFrame
from .metrics import ChannelSpec, rate_from_pair_sum

_CHUNK_SYMBOLS = 2048
_DECODE_BYTES = 1 << 29  # the sphere search splits its survivors where candidates would need more
_NEIGHBOURS = np.array([[0], [1], [2]])  # the Babai level and its neighbours in a box padded by +-inf
MIN_BITS = 10**4  # the smallest bit budget per Eb/N0 point of `ber_monte_carlo`

_log = logging.getLogger("rotcon")


@dataclass(frozen=True)
class FadeVector:
    """Finite non-negative fade diagonals: one (n,) realization or a (c, n) batch."""

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.ndim not in (1, 2) or not np.all((h >= 0) & (h < np.inf)):
            raise ValueError("fade vector must be 1D or 2D with finite non-negative entries")
        object.__setattr__(self, "h", h)


@dataclass(frozen=True)
class BerRow:
    ebn0_db: float
    bits_simulated: int
    bit_errors: int
    symbols_simulated: int
    symbol_errors: int
    seed: int

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_simulated

    @property
    def ser(self) -> float:
        return self.symbol_errors / self.symbols_simulated

    def ber_wilson(self, z: float = 1.96) -> tuple[float, float]:
        return wilson_interval(self.bit_errors, self.bits_simulated, z)


@dataclass(frozen=True)
class BerReport:
    """Per-Eb/N0 error-rate rows from one Monte Carlo run."""

    rows: tuple[BerRow, ...]

    def to_csv(self, dest) -> None:
        """Write the rows as CSV to a path or to an open text stream."""
        if isinstance(dest, (str, os.PathLike)):
            with open(dest, "w", newline="") as fh:
                return self.to_csv(fh)
        w = csv.writer(dest)
        w.writerow(
            ["ebn0_db", "bits", "bit_errors", "ber", "ber_lo", "ber_hi",
             "symbol_errors", "ser", "seed"]
        )
        for r in self.rows:
            lo, hi = r.ber_wilson()
            w.writerow(
                [r.ebn0_db, r.bits_simulated, r.bit_errors,
                 f"{r.ber:.8g}", f"{lo:.8g}", f"{hi:.8g}",
                 r.symbol_errors, f"{r.ser:.8g}", r.seed]
            )


def wilson_interval(errors: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def sample_fade(n: int | tuple[int, int], rng: np.random.Generator) -> FadeVector:
    """Fades h_i = sqrt(g1^2 + g2^2), g ~ N(0, 1/2), so E[h^2] = 1, for n = dim or (c, dim).

    A (c, dim) batch equals c successive single draws from the same stream.
    """
    g = rng.normal(scale=np.sqrt(0.5), size=np.append(n, 2))
    g *= g
    return FadeVector(np.sqrt(g[..., 0] + g[..., 1]))


def transmit(x: np.ndarray, h: FadeVector, ch: ChannelSpec, rng: np.random.Generator) -> np.ndarray:
    """Apply the fade and add Gaussian noise of variance N0 per coordinate."""
    x = np.asarray(x, dtype=float)
    if x.shape != h.h.shape:
        raise ValueError("point and fade dimensions disagree")
    return h.h * x + rng.normal(scale=np.sqrt(ch.N0), size=x.shape)


def ml_decode(x: Constellation, y: np.ndarray, h: FadeVector) -> int | np.ndarray:
    """Index (an array for a batch) of the point minimizing ||y - h*x'||^2; ties go low.

    A constellation with a product frame is searched by `_sphere_decode`,
    which leaves -1 in the rows it does not decide (a fade whose square is
    zero, underflowing ones included; a radius that is not finite, as from
    a zero or NaN pivot of its Cholesky factorization).  Those rows, and
    every row of a point set without a frame, go to `_brute_force`, whose
    metric arrays stay under _DECODE_BYTES.  Both minimize the same metric,
    but the search evaluates it elementwise and brute force by BLAS matrix
    products, whose last bits can differ; so exact ties, and near-ties
    within that rounding (levels an ulp apart in n >= 2, a fade too small to
    move the metric), may break differently on the two paths.
    y is one received vector (n,) or a batch (c, n), and h one fade (n,)
    or one per row, of y's shape; any other shape, or a received vector
    that is not finite, is a ValueError.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != x.n:
        raise ValueError(f"received vector must be ({x.n},) or (c, {x.n}), not {y.shape}")
    if h.h.shape not in ((x.n,), y.shape):
        raise ValueError(f"a fade of shape {h.h.shape} does not fit received shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("received vector must have finite entries")
    y2 = np.atleast_2d(y)
    h2 = np.broadcast_to(h.h, y2.shape)
    dec = (np.full(len(y2), -1, dtype=np.intp) if x.frame is None
           else _sphere_decode(x.frame, x.points, y2, h2))
    rest = np.flatnonzero(dec < 0)
    if len(rest):
        dec[rest] = _brute_force(x.points, y2[rest], h2[rest])
    return int(dec[0]) if y.ndim == 1 else dec


def _brute_force(pts: np.ndarray, y: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Argmin over all m points of the (c, n) batch, O(m) per symbol.

    The rows go in near-equal blocks, as few as keep each block's two
    (rows, m) metric arrays under _DECODE_BYTES (one row a block if need
    be): a block of one row is a matrix-vector product, whose last bits can
    differ from a matrix product's.
    """
    # ||y - h*x'||^2 expanded into two matrix products; the ||y||^2 term is
    # constant in the candidate and dropped
    p2 = (pts**2).T
    parts = min(len(y), -(-len(y) * len(pts) * 16 // _DECODE_BYTES))
    dec = []
    for yb, hb in zip(np.array_split(y, parts), np.array_split(h, parts)):
        metric = (hb**2) @ p2
        metric -= 2.0 * (yb * hb) @ pts.T
        dec.append(np.argmin(metric, axis=1))
    return np.concatenate(dec)


def _cholesky(rotation: np.ndarray, hh: np.ndarray, hy: np.ndarray) -> np.ndarray:
    """R and Q^T y of diag(h) rotation = QR for each of the c rows of hh = h*h and hy = h*y.

    Returns r of shape (n, n + 1, c): the upper-triangular R in r[:, :n]
    and Q^T y in r[:, n], the first n rows of the Cholesky factor of the
    augmented Gram matrix [M^T M | M^T y], M = diag(h) rotation.  That
    matrix is two small matrix products, h^2 times the products of pairs of
    rotation entries in each row and h y times the rotation; n row steps
    factor it in place.  The strict lower triangle of r is zero.
    """
    n, c = rotation.shape[0], len(hh)
    pairs = (rotation[:, :, None] * rotation[:, None, :]).reshape(n, n * n)
    r = np.empty((n, n + 1, c))
    r[:, :n] = (pairs.T @ hh.T).reshape(n, n, c)
    r[:, n] = rotation.T @ hy.T
    for k in range(n):
        r[k, k] = np.sqrt(r[k, k])
        r[k, k + 1:] /= r[k, k]
        r[k + 1:, k + 1:] -= r[k, k + 1:n, None] * r[k, None, k + 1:]
    r[np.tril_indices(n, -1)] = 0.0
    return r


def _sphere_decode(frame: ProductFrame, pts: np.ndarray, y: np.ndarray,
                   h: np.ndarray) -> np.ndarray:
    """Exact ML decisions for a rotated product constellation, breadth first.

    The received y = diag(h) Q u + noise for level vectors u of the frame's
    box, so with diag(h) Q = QR the metric is ||Q^T y - R u||^2 plus a
    constant, a sum of one term per coordinate that depends on the
    coordinates at and after it (Viterbo and Boutros, "A universal lattice
    code decoder for fading channels", IEEE Trans. IT 45(5), 1999).  R and
    Q^T y come from the Cholesky factor of the augmented Gram matrix
    [M^T M | M^T y], M = diag(h) Q (`_cholesky`; Fincke and Pohst, Math.
    Comp. 44(170), 1985).  The box-clipped Babai point gives each symbol a
    radius; `_descend` then fixes levels from the last coordinate down,
    keeping every partial vector still inside it, and decides the
    survivors.  The radius keeps a slack over the Babai distance, 1e-9 of
    it plus 1e-12 of the size of y and of the faded points.  Where the
    factorization completes, its backward error moves the part of the
    metric that depends on u by O(n eps) of that size, whatever the
    conditioning, so the ML point survives, and its computed metric exceeds
    its symbol's least by less than the same slack, which `_descend`'s
    final stage uses.  A level whose candidates would pass _DECODE_BYTES
    splits the survivors by symbol, and `_descend` finishes each part from
    that level.

    Every per-symbol quantity is kept coordinate-major, one long row of
    symbols per coordinate: r is (n, n + 1, c), the Babai pass works on its
    rows, and the sum of y*y, the largest h*h and the test h*h > 0 go a
    column at a time rather than along short rows of n.  The axes' midpoints
    and padded levels are formed once a call.

    The Babai pass also certifies symbols.  At each coordinate it takes the
    terms of the Babai level and of its two neighbour levels, given the
    Babai levels after it, with the search's own operations and so with its
    bits; once the radius is known, it replays, in the search's order, the
    remainder `left` of the radius that the search carries down the Babai
    path.  A symbol whose Babai term passes the search's test `t <= left` at
    every coordinate while neither neighbour's term does is one whose Babai
    path the search keeps alone: it is decided as its Babai point and skips
    the search.  The neighbours stand for every other level: the computed
    residual d = e - r * level never rises as the level rises (rounding is
    monotone) and d * d never falls as |d| grows, so an upper neighbour
    whose term exceeds the Babai term has d < 0, and every level above it a
    residual at most that d and a term at least the neighbour's; below,
    likewise.  This holds for levels an ulp apart too, which a frame admits
    and where the midpoint rule may pick a Babai level that is not the
    nearest: then a neighbour's term is at most the Babai term, and the
    symbol is searched.

    Rows with a fade whose square is zero (h = 0, or h under about
    1.6e-162, whose square underflows to zero) are left at -1 for
    `ml_decode`'s brute force: candidates that differ only in a coordinate
    it erases tie exactly, and the tie must break as brute force breaks it.  So are rows with a radius
    that is not finite (a zero, underflowing or NaN pivot makes it so), and
    any row left without a survivor.
    """
    c, n = y.shape
    levels = frame.levels
    strides = np.array(frame.index.strides) // frame.index.itemsize
    # each axis's midpoints, and its levels padded by -inf and inf, so that
    # past the box a neighbour of the Babai level is infinitely far
    mids = [(lv[1:] + lv[:-1]) / 2 for lv in levels]
    padded = [np.concatenate(([-np.inf], lv, [np.inf])) for lv in levels]
    hh = h * h
    with np.errstate(divide="ignore", invalid="ignore"):
        r = _cholesky(frame.rotation, hh, h * y)
        # the box-clipped Babai point, each level the nearest to its centre:
        # its flat key, its term at each coordinate and the lesser term of
        # the levels next to it
        e, babai, key = r[:, n].copy(), np.zeros(c), np.zeros(c, dtype=np.intp)
        tb, other = np.empty((n, c)), np.empty((n, c))
        for j in reversed(range(n)):
            b = np.searchsorted(mids[j], e[j] / r[j, j])
            u = padded[j][b + _NEIGHBOURS]  # the levels below, at and above the Babai level
            d = e[j] - r[j, j] * u
            t = d * d
            tb[j] = t[1]
            other[j] = np.minimum(t[0], t[2])
            babai += t[1]
            key += b * strides[j]
            e[:j] -= r[:j, j] * u[1]
        # 1e-9 relative slack, plus an allowance for rounding at the size of y and of
        # the faded points, whose ||p||^2 the box bounds (rotation keeps norms); it
        # matters only when the Babai distance is itself at rounding level
        scale, top, ok = y[:, 0] * y[:, 0], hh[:, 0].copy(), hh[:, 0] > 0
        for i in range(1, n):
            scale += y[:, i] * y[:, i]
            np.maximum(top, hh[:, i], out=top)
            ok &= hh[:, i] > 0
        scale += top * sum(np.max(v * v) for v in levels)
        radius = (1.0 + 1e-9) * (babai + 1e-12 * scale)
        slack = radius - babai
        ok &= np.isfinite(radius)
        # the certificate: the search's test `t <= left` on the remainder
        # `left` it would carry down the Babai path
        alone, left = ok.copy(), radius
        for j in reversed(range(n)):
            alone &= (tb[j] <= left) & (other[j] > left)
            left = left - tb[j]

    dec = np.full(c, -1, dtype=np.intp)
    dec[alone] = frame.index.reshape(-1)[key[alone]]
    sym = np.flatnonzero(ok & ~alone)
    _descend(frame, pts, y, h, r, sym, np.zeros(len(sym), dtype=np.intp), radius[sym],
             [col[sym] for col in r[:, n]], slack, dec)
    return dec


def _descend(frame: ProductFrame, pts: np.ndarray, y: np.ndarray, h: np.ndarray,
             r: np.ndarray, sym: np.ndarray, key: np.ndarray, left: np.ndarray,
             e: list[np.ndarray], slack: np.ndarray, dec: np.ndarray) -> None:
    """Fix the remaining coordinates of the survivors of `_sphere_decode`; decide them into dec.

    Each survivor is a symbol (ascending, so grouped), the flat key of the
    levels fixed so far, what is left of its radius, and the residual
    Q^T y - R u of the coordinates 0..j not yet fixed, which are fixed from
    j down; e holds that residual as j + 1 columns, one 1-D array over the
    survivors per coordinate.  slack is each symbol's radius less its Babai
    distance.  A level tests all its (survivor, level) candidates at once,
    `t <= left` on one survivor-major array, and a flat index of those that
    pass, divided by the axis's level count, gives each its survivor and
    level; the rest are 1-D gathers.  Once every coordinate is fixed, a
    survivor whose `left` is more than its symbol's slack below the
    symbol's largest `left` cannot be the ML point and is dropped; a symbol
    with one survivor left is decided by it, and a symbol with several by
    `_brute_force`'s metric on the points, evaluated elementwise, ties to
    the lowest index.  A symbol left without a survivor keeps its entry of
    dec.

    A level needs at most 8n + 80 bytes a candidate, when every candidate
    passes: the term, its flat index, survivor and level (8 each), the
    survivors' symbol, key, remainder and level value (32), the j < n new
    residual columns (8 each) and three column-sized temporaries (24).  A
    level whose candidates would pass _DECODE_BYTES is not expanded at
    once: the survivors are split into two groups of whole symbols, and
    each group is finished from that level, so no level is searched twice.
    """
    strides = np.array(frame.index.strides) // frame.index.itemsize
    for j in reversed(range(len(e))):
        lv = frame.levels[j]
        if len(sym) * len(lv) * (8 * len(frame.levels) + 80) > _DECODE_BYTES:
            # the symbol boundary nearest the middle of the survivors
            starts = np.flatnonzero(np.diff(sym)) + 1
            if len(starts):
                cut = starts[np.argmin(np.abs(starts - len(sym) / 2))]
                for part in (slice(cut), slice(cut, None)):
                    _descend(frame, pts, y, h, r, sym[part], key[part], left[part],
                             [col[part] for col in e], slack, dec)
                return
        # the term of every (survivor, level) candidate, formed level-major,
        # each operation along the survivors, then laid out survivor-major, so
        # that the candidates that pass come grouped by symbol
        t = e[j] - np.multiply.outer(lv, r[j, j][sym])
        t *= t
        t = t.T.copy()
        flat = np.flatnonzero(t <= left[:, None])
        t = t.take(flat)  # the terms that pass; the candidates' array goes
        s, i = np.divmod(flat, len(lv))
        sym, key, left = sym[s], key[s] + i * strides[j], left[s] - t
        lvi = lv[i]
        e = [e[k][s] - r[k, j][sym] * lvi for k in range(j)]

    # keep the survivors within their symbol's slack of its largest `left`
    # (its least metric); decide a symbol with one such survivor by it and
    # the rest by the brute-force metric, evaluated elementwise, ties to the
    # lowest index.  Per-symbol values sit at the symbol's own index.
    low = np.full(len(dec), -np.inf)
    np.maximum.at(low, sym, left)
    near = left >= (low - slack)[sym]
    sym, cand = sym[near], frame.index.reshape(-1)[key[near]]
    size = np.bincount(sym, minlength=len(dec))
    one = size[sym] == 1
    dec[sym[one]] = cand[one]
    sym, cand = sym[~one], cand[~one]
    p, hs = pts[cand], h[sym]
    metric = (np.einsum("si,si->s", hs * hs, p * p)
              - 2.0 * np.einsum("si,si->s", y[sym] * hs, p))
    best = np.full(len(dec), np.inf)
    np.minimum.at(best, sym, metric)
    win = metric == best[sym]
    dec[size > 1] = len(pts)
    np.minimum.at(dec, sym[win], cand[win])


def r0_conditional(x: Constellation, h: np.ndarray, ch: ChannelSpec) -> float | np.ndarray:
    """Cutoff-rate bound in bits given the fade: a float for h of shape (n,), c rates for (c, n).

    The pair sums of exp(-sum_i z_i^2 h_i^2 / (8 N0)) are taken in passes of
    2^20 // u fades (u distinct differences), coordinate by coordinate and
    fade by fade, as `metrics` sums every pair multiset.
    """
    hv = FadeVector(h).h
    if hv.shape[-1] != x.n:
        raise ValueError("fade vector must have n non-negative entries")
    z, counts = x.pair_differences
    zsq, cf, hsq, rates = (z * z).T.copy(), counts.astype(float), np.atleast_2d(hv) ** 2, []
    step = max(1, (1 << 20) // max(1, len(cf)))
    for b in np.split(hsq, range(step, len(hsq), step)):
        e = b[:, :1] * zsq[0]
        for i in range(1, x.n):
            e += b[:, i, None] * zsq[i]
        e /= -8.0 * ch.N0
        np.exp(e, out=e)
        e *= cf
        rates += [rate_from_pair_sum(x.q_bits, s) for s in e.sum(axis=1).tolist()]
    return rates[0] if hv.ndim == 1 else np.array(rates)


def r0_expected_mc(
    x: Constellation, ch: ChannelSpec, num_channels: int, seed: int
) -> tuple[float, float]:
    """(mean, standard error) of `r0_conditional` over one seeded `sample_fade` draw."""
    if num_channels < 1:
        raise ValueError("num_channels must be at least 1")
    vals = r0_conditional(x, sample_fade((num_channels, x.n), np.random.default_rng(seed)).h, ch)
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(num_channels)) if num_channels > 1 else 0.0
    return mean, stderr


def ber_monte_carlo(
    x: Constellation,
    specs: list[ChannelSpec],
    min_bits: int = 10**6,
    seed: int = 0,
) -> BerReport:
    """Count bit and symbol errors under fast fading and ML decoding.

    Symbols are drawn uniformly; bit errors are Hamming distances between
    the transmitted and decoded labels.  Each Eb/N0 point gets a spawned
    random substream, further split per fixed-size chunk of symbols.  A
    constellation without a product frame is decoded by brute force, which
    is said once at INFO on the "rotcon" logger.
    """
    if x.labels is None:
        raise ValueError("bit error counting requires a labeled constellation")
    if min_bits < MIN_BITS:
        raise ValueError(f"min_bits must be at least {MIN_BITS}")
    if x.frame is None:
        _log.info("ber_monte_carlo: brute-force ML decoding for m=%d, n=%d: the points "
                  "are not a rotated Cartesian product of their axis levels", x.m, x.n)
    # each label as an integer, so that the Hamming distance of two labels is
    # the bit count of their XOR, read from a table of the counts of 0 .. m - 1
    bits = np.frombuffer("".join(x.labels).encode(), dtype=np.uint8).reshape(x.m, x.q_bits)
    codes, ones = np.zeros(x.m, dtype=np.intp), np.zeros(1, dtype=np.uint8)
    for column in bits.T:
        codes = 2 * codes + (column == ord("1"))
        ones = np.concatenate((ones, ones + 1))
    symbols_per_point = -(-min_bits // x.q_bits)
    n_chunks = -(-symbols_per_point // _CHUNK_SYMBOLS)
    rows = []
    for ch, seq in zip(specs, np.random.SeedSequence(seed).spawn(len(specs))):
        bit_err = sym_err = 0
        for k, cseq in enumerate(seq.spawn(n_chunks)):
            c = min(_CHUNK_SYMBOLS, symbols_per_point - k * _CHUNK_SYMBOLS)
            rng = np.random.default_rng(cseq)
            idx = rng.integers(0, x.m, size=c)
            h = sample_fade((c, x.n), rng)
            dec = ml_decode(x, transmit(x.points[idx], h, ch, rng), h)
            sym_err += int(np.count_nonzero(dec != idx))
            bit_err += int(ones[codes[idx] ^ codes[dec]].sum())
        rows.append(
            BerRow(
                ebn0_db=ch.ebn0_db if ch.ebn0_db is not None else float("nan"),
                bits_simulated=symbols_per_point * x.q_bits,
                bit_errors=bit_err,
                symbols_simulated=symbols_per_point,
                symbol_errors=sym_err,
                seed=seed,
            )
        )
    return BerReport(rows=tuple(rows))
