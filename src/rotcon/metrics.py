"""Rate, diversity, and distance functionals of a constellation.

This module owns the multiset of distinct pair differences x - y, x != y,
with multiplicities.  `difference_multiset` builds it once per constellation
(`Constellation.pair_differences`): a rotated product of axis levels (QAM,
NUQAM, any rotation or rescaling of one, a product file) gives the product
of its axis multisets under its `ProductFrame`'s rotation; a point set
without one gives raw pairs.  `_t_invariant_classes` merges it into the
rotation family's classes (`Constellation.family_classes`), `_ball` keeps a
closed ball of it, `_profile` gives each row's (L, d_p) for diversity and
product distance, and every rational pair term, the optimizers' too, comes
from `rational_weights`.  Pair sums are numpy's pairwise sum of counts x terms,
never a BLAS dot, and `rate_from_pair_sum` is the one rate formula: a rate has
the same bits at any BLAS thread count and in any batch.
Nothing here is random: the fade-conditioned bounds `r0_conditional` and
`r0_expected_mc` live in `channel`, which owns the fading model.
"""

from __future__ import annotations

import functools
import logging
import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # annotations only: `constellation` imports this module
    from .constellation import Constellation, ProductFrame
    from .liegroup import RotationMatrix

COORDINATE_TOL = 1e-9
_RAW_PAIR_BYTES = 1 << 30  # the most a generated product, or any pair multiset, may take

_log = logging.getLogger("rotcon")


class EmptyBallWarning(UserWarning):
    """No ordered pair lies within the requested radius."""


@dataclass(frozen=True)
class ChannelSpec:
    """Noise variance per real dimension, with optional Eb/N0 bookkeeping."""

    N0: float
    ebn0_db: float | None = None

    def __post_init__(self):
        if not 0 < self.N0 < math.inf:
            raise ValueError(f"noise variance must be positive and finite, got {self.N0}")

    @classmethod
    def from_ebn0_db(cls, db: float) -> "ChannelSpec":
        """N0 under the Eb = 1 convention (constellation normalized to P = q)."""
        return cls(N0=10.0 ** (-db / 10.0), ebn0_db=db)


def _axis_multiset(levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct level differences a - b of one axis and their counts, 0.0 first.

    0.0 holds the k pairs a = b.  Nonzero differences within 1e-12 relative
    of each other (float noise of scaled levels) merge into one, represented
    by its smallest member.
    """
    k = len(levels)
    dv, inv = np.unique((levels[:, None] - levels[None, :])[~np.eye(k, dtype=bool)],
                        return_inverse=True)
    new = np.diff(dv, prepend=-np.inf) > 1e-12 * float(np.max(np.abs(dv), initial=0.0))
    return (np.concatenate([[0.0], dv[new]]),
            np.concatenate([[k], np.bincount((np.cumsum(new) - 1)[inv])]))


def difference_multiset(points: np.ndarray, frame: ProductFrame | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Distinct nonzero ordered-pair differences x - y with multiplicities.

    Returns (Z, counts) with Z of shape (u, n).  Points with a product
    `frame` (that of their constellation) give the product of the axis
    multisets of its levels, whose nonzero coordinates are merged within 1e-12
    relative, rotated as the frame is, so the values agree with the raw pair
    differences up to float noise.  With no frame, the points give their
    m(m - 1) raw pairs and say so at INFO on the "rotcon" logger.  Either
    way, ValueError if the result would take more than 1 GiB
    (`_RAW_PAIR_BYTES`).
    """
    pts = np.asarray(points, dtype=float)
    m, n = pts.shape
    if frame is None:
        kind, need = "raw", m * m * (16 * n + 9)  # the m^2 x n differences, their copy and counts
    else:
        reps, cs = zip(*(_axis_multiset(lv) for lv in frame.levels))
        kind, need = "product", math.prod(map(len, reps)) * (8 * n + 8)
    if need > _RAW_PAIR_BYTES:
        raise ValueError(f"the {kind} pair differences of m={m} points in n={n} "
                         f"dimensions need about {need} bytes (limit {_RAW_PAIR_BYTES})")
    if frame is None:
        _log.info("difference_multiset: raw pairs for m=%d, n=%d: the points are not "
                  "a rotated Cartesian product of axis levels", m, n)
        z = (pts[:, None, :] - pts[None, :, :])[~np.eye(m, dtype=bool)]
        return z, np.ones(len(z), dtype=np.int64)

    # 0.0 is first on every axis, so row 0, dropped, is that of the m pairs x = y
    z = np.stack(np.meshgrid(*reps, indexing="ij", copy=False), axis=-1).reshape(-1, n)[1:]
    counts = functools.reduce(np.multiply.outer, cs).reshape(-1)[1:]
    # z @ Q^T, the expression `rotate` applies to the points, taken in place in
    # blocks of rows, so Z is allocated once; an unrotated set is kept as built
    if not np.array_equal(frame.rotation, np.eye(n)):
        for b in np.split(z, range(1 << 16, len(z), 1 << 16)):
            b[:] = b @ frame.rotation.T
    return z, counts


def _t_invariant_classes(z, counts, a):
    """Merge the differences whose rotation-family terms agree at every t.

    The term of z at t is a product over i of a function of
    (cos(t) z_i + sin(t) (Az)_i)^2, so it depends only on the multiset of
    coordinate pairs (z_i, (Az)_i), each taken up to sign.  Rows with the
    same such multiset (quantized at 2^-44 of max|z|, finer than the 1e-12
    relative merge of nonzero axis differences in `_axis_multiset`) form
    one class.  Returns each class's lexicographically least row of z (whatever
    order z is in), that row of Az, and the summed counts.
    """
    za = z @ a.T
    scale = 2.0**44 / float(np.max(np.abs(z)))
    p = np.empty(z.shape, dtype=complex)
    p.real = np.rint(z * scale)
    p.imag = np.rint(za * scale)
    p[(p.real < 0) | ((p.real == 0) & (p.imag < 0))] *= -1
    p.sort(axis=1)  # complex values sort by real part, then imaginary part
    keys = p.view(float)
    # rows in lexicographic order of (keys, z), so a class starts at its smallest row
    order = np.lexsort((*z.T[::-1], *keys.T[::-1]))
    sk = keys[order]
    new = np.concatenate([[True], np.any(sk[1:] != sk[:-1], axis=1)])
    inv = np.empty(len(z), dtype=np.intp)
    inv[order] = np.cumsum(new) - 1
    first = order[new]
    return z[first], za[first], np.bincount(inv, weights=counts)


def rational_weights(z: np.ndarray, n0: float) -> tuple[np.ndarray, np.ndarray]:
    """Factors w = 1 / (1 + z^2 / (8 N0)) of each row of z, and their products.

    w is formed in place in one array the size of z, stored in the order z
    is.  The products are the same bits either way; narrow rows stored by
    column take them one column at a time, much faster."""
    w = z * z
    w *= 1.0 / (8.0 * n0)
    w += 1.0
    np.divide(1.0, w, out=w)
    return w, np.prod(w, axis=1)


def pair_sum_rational(z: np.ndarray, counts: np.ndarray, n0: float) -> float:
    """Sum over pairs of the product of 1 / (1 + z_i^2 / (8 N0)); counts int or float."""
    return float(np.sum(counts * rational_weights(z, n0)[1]))


def rate_from_pair_sum(q_bits: int, s: float) -> float:
    return q_bits - math.log2(1.0 + s / 2.0**q_bits)


def cutoff_rate(x: Constellation, ch: ChannelSpec) -> float:
    """Closed-form cutoff rate of the constellation, in bits."""
    return local_cutoff_rate(x, math.inf, ch)


def _ball(x: Constellation, r: float) -> tuple[np.ndarray, np.ndarray]:
    """(Z, counts) of x's pairs in the closed ball of radius r: the cached arrays at r = inf."""
    z, counts = x.pair_differences
    if r == math.inf:
        return z, counts
    if not r > 0:  # NaN fails too
        raise ValueError("radius must be positive")
    # closed ball with 1e-12 relative slack so pairs at exactly distance r
    # stay inside despite rotation round-off; the squares are summed one
    # coordinate at a time, so no temporary the size of Z is made
    d2 = z[:, 0] * z[:, 0]
    for col in z.T[1:]:
        d2 += col * col
    keep = d2 <= r * r * (1.0 + 1e-12)
    return z[keep], counts[keep]


def local_cutoff_rate(x: Constellation, r: float, ch: ChannelSpec) -> float:
    """Cutoff rate restricted to pairs within the closed ball of radius r."""
    return rate_from_pair_sum(x.q_bits, pair_sum_rational(*_ball(x, r), ch.N0))


def _profile(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, d_p) of each row of z: how many coordinates exceed COORDINATE_TOL, and
    their product in magnitude (1.0 for none), taken one coordinate at a time."""
    lengths, dp = np.zeros(len(z), dtype=np.intp), np.ones(len(z))
    for col in z.T:
        a = np.abs(col)
        nonzero = a > COORDINATE_TOL
        lengths += nonzero
        dp *= np.where(nonzero, a, 1.0)
    return lengths, dp


def _ball_min(values: np.ndarray, r: float, empty):
    """The least of values, or `empty` with an EmptyBallWarning, at the caller's line, if none."""
    if len(values) == 0:
        warnings.warn(f"no pair within radius {r}; empty-min convention", EmptyBallWarning, 2)
        return empty
    return values.min()


def diversity_order(x: Constellation, r: float = math.inf) -> int:
    """Minimum number of coordinates in which two points within r differ; n for an empty ball."""
    return int(_ball_min(_profile(_ball(x, r)[0])[0], r, x.n))


def min_product_distance(x: Constellation, r: float = math.inf) -> tuple[float, float]:
    """Minimum product of nonzero coordinate differences over pairs within r.

    Returns (d_p, d_p ** (1/n)), the raw and dimension-normalized values;
    inf for an empty ball.
    """
    dp = float(_ball_min(_profile(_ball(x, r)[0])[1], r, math.inf))
    return dp, dp ** (1.0 / x.n)


def high_snr_sum(x: Constellation, ch: ChannelSpec) -> float:
    """High-SNR pair sum: products of 8 N0 / (x_i - y_i)^2 over the L nonzero coordinates, or
    (8 N0)^L / d_p^2, the N0 -> 0 limit of the cutoff-rate term (Boutros-Viterbo, IT 1998)."""
    z, counts = x.pair_differences
    lengths, dp = _profile(z)
    dp *= dp
    return float(np.sum(counts * ((8.0 * ch.N0) ** lengths / dp)))


def is_locally_fully_diverse(q: RotationMatrix) -> bool:
    """True iff every entry of Q is nonzero beyond COORDINATE_TOL.

    For a QAM constellation this is equivalent to local full diversity at
    radius 2: nearest neighbors differ by twice a standard basis vector, so
    the rotated differences are columns of Q.
    """
    return bool(np.all(np.abs(q.entries) > COORDINATE_TOL))


@dataclass
class MetricsReport:
    """Aggregated functionals of one constellation at one channel spec."""

    q_bits: int
    n: int
    cutoff_rate: float
    radii: list[float]
    local_cutoff_rate: dict[float, float]
    diversity: dict[float, int]
    min_product: dict[float, float]
    min_product_normalized: dict[float, float]

    def to_jsonable(self) -> dict:
        def key(r):
            return "inf" if r == math.inf else r

        return {
            "q_bits": self.q_bits,
            "n": self.n,
            "cutoff_rate": self.cutoff_rate,
            "radii": [key(r) for r in self.radii],
            "local_cutoff_rate": {str(key(r)): v for r, v in self.local_cutoff_rate.items()},
            "diversity_order": {str(key(r)): v for r, v in self.diversity.items()},
            "min_product_distance": {str(key(r)): v for r, v in self.min_product.items()},
            "min_product_distance_normalized": {
                str(key(r)): v for r, v in self.min_product_normalized.items()
            },
        }


def compute_report(
    x: Constellation, ch: ChannelSpec, radii: tuple[float, ...] = (2.0, math.inf)
) -> MetricsReport:
    """Every metric from one ball per radius, its rate summed before its (L, d_p) profile."""
    local_r, div, mp, mpn = {}, {}, {}, {}
    for r in radii:
        z, counts = _ball(x, r)
        local_r[r] = rate_from_pair_sum(x.q_bits, pair_sum_rational(z, counts, ch.N0))
        lengths, dp = _profile(z)
        div[r] = int(_ball_min(lengths, r, x.n))
        mp[r] = float(_ball_min(dp, r, math.inf))
        mpn[r] = mp[r] ** (1.0 / x.n)
    return MetricsReport(
        q_bits=x.q_bits,
        n=x.n,
        cutoff_rate=local_r[math.inf] if math.inf in local_r else cutoff_rate(x, ch),
        radii=list(radii),
        local_cutoff_rate=local_r,
        diversity=div,
        min_product=mp,
        min_product_normalized=mpn,
    )
