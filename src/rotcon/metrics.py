"""Rate, diversity, and distance functionals of a constellation.

All pair sums run over ordered pairs (x, y), x != y.  Internally the m^2
pairs are compressed to the multiset of distinct difference vectors with
multiplicities, which is exact (coordinates of a pair difference and of the
corresponding unique-level difference are the same floating-point value)
and makes the O(m^2) sums cheap for structured constellations.
Each call, `compute_report` included, builds the multiset once; every
rational pair sum, the optimizers' too, goes through `pair_sum_rational`.
Nothing here is random: the fade-conditioned bounds `r0_conditional` and
`r0_expected_mc` live in `channel`, which owns the fading model.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation
from .liegroup import RotationMatrix

COORDINATE_TOL = 1e-9
_MAX_COMPRESSED_KEYS = 1 << 22

_log = logging.getLogger("rotcon")


class EmptyBallWarning(UserWarning):
    """No ordered pair lies within the requested radius."""


@dataclass(frozen=True)
class ChannelSpec:
    """Noise variance per real dimension, with optional Eb/N0 bookkeeping."""

    N0: float
    ebn0_db: float | None = None

    def __post_init__(self):
        if self.N0 <= 0:
            raise ValueError("noise variance must be positive")

    @classmethod
    def from_ebn0_db(cls, db: float) -> "ChannelSpec":
        """N0 under the Eb = 1 convention (constellation normalized to P = q)."""
        return cls(N0=10.0 ** (-db / 10.0), ebn0_db=db)


def _axis_alphabet(levels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted level differences with float-noise duplicates merged.

    Returns (dv, gid, reps): the full sorted difference alphabet, the group
    index of each entry (entries within 1e-12 relative of each other share a
    group), and one representative value per group.  Exact zero keeps the
    representative 0.0 so the self-pair key is well defined.
    """
    dv = np.unique(levels[:, None] - levels[None, :])
    tol = 1e-12 * float(np.max(np.abs(dv))) if len(dv) > 1 else 0.0
    gid = np.zeros(len(dv), dtype=np.int64)
    if len(dv) > 1:
        gid[1:] = np.cumsum(np.diff(dv) > tol)
    first = np.searchsorted(gid, np.arange(gid[-1] + 1))
    reps = dv[first]
    zi = np.searchsorted(dv, 0.0)
    reps[gid[zi]] = 0.0  # dv always contains the exact zero of x - x
    return dv, gid, reps


def difference_multiset(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct nonzero ordered-pair differences x - y with multiplicities.

    Returns (Z, counts) with Z of shape (u, n).  Coordinates of a difference
    are merged with the per-axis alphabet within 1e-12 relative, so the
    returned values agree with the raw pair differences up to float noise.
    Falls back to the raw pair list when the alphabet is too large to index,
    and says so at INFO on the "rotcon" logger.
    """
    pts = np.asarray(points, dtype=float)
    m, n = pts.shape
    alphabets = []
    n_keys = 1
    for i in range(n):
        alphabets.append(_axis_alphabet(np.unique(pts[:, i])))
        n_keys *= len(alphabets[-1][2])
        if n_keys > _MAX_COMPRESSED_KEYS:
            break
    if n_keys > _MAX_COMPRESSED_KEYS:
        _log.info("difference_multiset: raw-pair fallback for m=%d, n=%d: the alphabet "
                  "needs at least %d keys (limit %d)", m, n, n_keys, _MAX_COMPRESSED_KEYS)
        z = (pts[:, None, :] - pts[None, :, :]).reshape(m * m, n)
        keep = ~np.eye(m, dtype=bool).reshape(-1)
        return z[keep], np.ones(keep.sum(), dtype=np.int64)

    strides = np.ones(n, dtype=np.int64)
    for i in range(n - 2, -1, -1):
        strides[i] = strides[i + 1] * len(alphabets[i + 1][2])
    counts = np.zeros(n_keys, dtype=np.int64)
    chunk = max(1, (1 << 22) // (m * n))
    for lo in range(0, m, chunk):
        d = pts[lo : lo + chunk, None, :] - pts[None, :, :]
        keys = np.zeros(d.shape[:2], dtype=np.int64)
        for i, (dv, gid, _) in enumerate(alphabets):
            keys += strides[i] * gid[np.searchsorted(dv, d[:, :, i])]
        counts += np.bincount(keys.reshape(-1), minlength=n_keys)

    zero_key = sum(
        int(strides[i]) * int(gid[np.searchsorted(dv, 0.0)])
        for i, (dv, gid, _) in enumerate(alphabets)
    )
    counts[zero_key] -= m  # drop the x = y pairs
    keys = np.nonzero(counts)[0]
    z = np.empty((len(keys), n))
    rem = keys.copy()
    for i in range(n):
        z[:, i] = alphabets[i][2][rem // strides[i]]
        rem = rem % strides[i]
    return z, counts[keys]


def pair_sum_rational(z: np.ndarray, counts: np.ndarray, n0: float) -> float:
    """Sum over pairs of the product of 1 / (1 + z_i^2 / (8 N0)); counts int or float."""
    w = 1.0 / (1.0 + z**2 * (1.0 / (8.0 * n0)))
    return float(np.dot(counts, np.prod(w, axis=1)))


def rate_from_pair_sum(q_bits: int, s: float) -> float:
    return q_bits - math.log2(1.0 + s / 2.0**q_bits)


def cutoff_rate(x: Constellation, ch: ChannelSpec) -> float:
    """Closed-form cutoff rate of the constellation, in bits."""
    z, counts = difference_multiset(x.points)
    return rate_from_pair_sum(x.q_bits, pair_sum_rational(z, counts, ch.N0))


def _within_radius(z: np.ndarray, r: float) -> np.ndarray | slice:
    if r == math.inf:
        return slice(None)  # indexing with it gives a view, not a pair-sized copy
    if r <= 0:
        raise ValueError("radius must be positive")
    # closed ball with 1e-12 relative slack so pairs at exactly distance r
    # stay inside despite rotation round-off
    return np.sum(z**2, axis=1) <= r * r * (1.0 + 1e-12)


def _diversity(z: np.ndarray, r: float, n: int, coordinate_tol: float) -> int:
    """Diversity order over the differences z within r; n for an empty ball."""
    if len(z) == 0:
        warnings.warn(f"no pair within radius {r}; empty-min convention", EmptyBallWarning)
        return n
    return int(np.min(np.sum(np.abs(z) > coordinate_tol, axis=1)))


def _min_product(z: np.ndarray, r: float, n: int, coordinate_tol: float) -> tuple[float, float]:
    """(d_p, d_p ** (1/n)) over the differences z within r; inf for an empty ball."""
    if len(z) == 0:
        warnings.warn(f"no pair within radius {r}; empty-min convention", EmptyBallWarning)
        return math.inf, math.inf
    az = np.abs(z)
    dp = float(np.min(np.prod(np.where(az > coordinate_tol, az, 1.0), axis=1)))
    return dp, dp ** (1.0 / n)


def local_cutoff_rate(x: Constellation, r: float, ch: ChannelSpec) -> float:
    """Cutoff rate restricted to pairs within the closed ball of radius r."""
    z, counts = difference_multiset(x.points)
    keep = _within_radius(z, r)
    return rate_from_pair_sum(x.q_bits, pair_sum_rational(z[keep], counts[keep], ch.N0))


def diversity_order(
    x: Constellation, r: float = math.inf, coordinate_tol: float = COORDINATE_TOL
) -> int:
    """Minimum number of coordinates in which two points within r differ."""
    z, _ = difference_multiset(x.points)
    return _diversity(z[_within_radius(z, r)], r, x.n, coordinate_tol)


def min_product_distance(
    x: Constellation, r: float = math.inf, coordinate_tol: float = COORDINATE_TOL
) -> tuple[float, float]:
    """Minimum product of nonzero coordinate differences over pairs within r.

    Returns (d_p, d_p ** (1/n)), the raw and dimension-normalized values.
    """
    z, _ = difference_multiset(x.points)
    return _min_product(z[_within_radius(z, r)], r, x.n, coordinate_tol)


def high_snr_sum(
    x: Constellation, ch: ChannelSpec, coordinate_tol: float = COORDINATE_TOL
) -> float:
    """High-SNR approximation of the pair sum: products of 8 N0 / (x_i - y_i)^2."""
    z, counts = difference_multiset(x.points)
    zsq = z**2
    terms = np.where(np.abs(z) > coordinate_tol, 8.0 * ch.N0 / np.where(zsq > 0, zsq, 1.0), 1.0)
    return float(np.dot(counts.astype(float), np.prod(terms, axis=1)))


def is_locally_fully_diverse(q: RotationMatrix, tol: float = COORDINATE_TOL) -> bool:
    """True iff every entry of Q is nonzero beyond tol.

    For a QAM constellation this is equivalent to local full diversity at
    radius 2: nearest neighbors differ by twice a standard basis vector, so
    the rotated differences are columns of Q.
    """
    return bool(np.all(np.abs(q.entries) > tol))


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
    x: Constellation,
    ch: ChannelSpec,
    radii: tuple[float, ...] = (2.0, math.inf),
    coordinate_tol: float = COORDINATE_TOL,
) -> MetricsReport:
    """Evaluate every metric at each requested radius from one multiset."""
    z, counts = difference_multiset(x.points)
    local_r, div, mp, mpn = {}, {}, {}, {}
    for r in radii:
        keep = _within_radius(z, r)
        zr = z[keep]
        local_r[r] = rate_from_pair_sum(x.q_bits, pair_sum_rational(zr, counts[keep], ch.N0))
        div[r] = _diversity(zr, r, x.n, coordinate_tol)
        mp[r], mpn[r] = _min_product(zr, r, x.n, coordinate_tol)
    return MetricsReport(
        q_bits=x.q_bits,
        n=x.n,
        cutoff_rate=rate_from_pair_sum(x.q_bits, pair_sum_rational(z, counts, ch.N0)),
        radii=list(radii),
        local_cutoff_rate=local_r,
        diversity=div,
        min_product=mp,
        min_product_normalized=mpn,
    )
