"""Finite constellations in R^n: QAM products, non-uniform QAM, and I/O.

A constellation is a set of m = 2^q distinct points, optionally carrying a
Gray bit labeling.  All operations return new values; instances are
immutable and their points read-only, so each caches its product frame and
its pair-difference multiset on first use.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .liegroup import RotationMatrix

SUPPORTED_QAM_ORDERS = (4, 16, 64, 256, 1024)


@dataclass(frozen=True)
class ProductFrame:
    """A constellation as a rotated Cartesian product of per-axis levels.

    Point `index[i_0, ..., i_{n-1}]` is `rotation @ (levels[0][i_0], ...,
    levels[n-1][i_{n-1}])`, exactly for an unrotated product (rotation I)
    and up to float rounding for one made by `rotate`.
    """

    levels: tuple[np.ndarray, ...]  # ascending, one array per axis
    index: np.ndarray  # point index of each tuple of level indices
    rotation: np.ndarray

    @classmethod
    def detect(cls, points: np.ndarray) -> "ProductFrame | None":
        """The frame of points that are the full product of their axis levels, else None."""
        m, n = points.shape
        levels = tuple(np.unique(points[:, i]) for i in range(n))
        shape = tuple(len(v) for v in levels)
        if math.prod(shape) != m:
            return None
        # distinct points on a grid of m cells fill it, so the keys are a permutation
        keys = np.ravel_multi_index(
            [np.searchsorted(v, points[:, i]) for i, v in enumerate(levels)], shape)
        index = np.empty(m, dtype=np.intp)
        index[keys] = np.arange(m)
        for a in (*levels, index):
            a.flags.writeable = False
        return cls(levels, index.reshape(shape), np.eye(n))


@dataclass(frozen=True)
class Constellation:
    """m distinct points in R^n with m a power of two; labels are q-bit strings."""

    points: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)  # a copy: the caller's array stays writeable
        if pts.ndim != 2:
            raise ValueError("points must be an m x n array")
        m = pts.shape[0]
        if m == 0 or m & (m - 1) != 0:
            raise ValueError(f"constellation size {m} is not a power of two")
        if len({tuple(p) for p in pts}) != m:
            raise ValueError("constellation points must be pairwise distinct")
        if self.labels is not None:
            labels = tuple(self.labels)
            q = self.q_bits_of(m)
            if len(labels) != m or len(set(labels)) != m:
                raise ValueError("labels must be unique, one per point")
            if any(len(b) != q or set(b) - {"0", "1"} for b in labels):
                raise ValueError(f"labels must be {q}-bit binary strings")
            object.__setattr__(self, "labels", labels)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @staticmethod
    def q_bits_of(m: int) -> int:
        return m.bit_length() - 1

    @property
    def n(self) -> int:
        return self.points.shape[1]

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def q_bits(self) -> int:
        """Bits per constellation point, log2(m)."""
        return self.q_bits_of(self.m)

    @property
    def energy(self) -> float:
        """Average squared norm of the points."""
        return float(np.mean(np.sum(self.points**2, axis=1)))

    @cached_property
    def product_frame(self) -> ProductFrame | None:
        """The product frame of the points, or None for any other point set.

        A constellation made by `rotate` carries its parent's levels and
        index table under the composite rotation instead of detecting them.
        """
        if "_rotated_from" not in vars(self):
            return ProductFrame.detect(self.points)
        x, q = vars(self)["_rotated_from"]
        f = x.product_frame
        return None if f is None else ProductFrame(f.levels, f.index, q.entries @ f.rotation)

    @cached_property
    def pair_differences(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (Z, counts) of `metrics.difference_multiset`, built on first use.

        A constellation made by `rotate` rotates its parent's set instead:
        z @ Q^T, the expression `rotate` applies to the points, same counts.
        """
        if "_rotated_from" in vars(self):
            x, q = vars(self)["_rotated_from"]
            z, counts = x.pair_differences
            z = z @ q.entries.T
        else:
            from .metrics import difference_multiset

            z, counts = difference_multiset(self.points)
        z.flags.writeable = counts.flags.writeable = False
        return z, counts


@dataclass(frozen=True)
class NuqamParams:
    """Positive, strictly increasing per-axis levels of a non-uniform QAM."""

    alpha: tuple[float, ...]

    def __post_init__(self):
        a = tuple(float(x) for x in self.alpha)
        if len(a) == 0 or any(x <= 0 for x in a):
            raise ValueError("non-uniformity parameters must be strictly positive")
        if any(a[i] >= a[i + 1] for i in range(len(a) - 1)):
            raise ValueError("non-uniformity parameters must be strictly increasing")
        object.__setattr__(self, "alpha", a)


def _gray_bits(index: int, width: int) -> str:
    return format(index ^ (index >> 1), f"0{width}b")


def _pam_axis(levels: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Ascending PAM levels with per-level Gray labels."""
    width = Constellation.q_bits_of(len(levels))
    return levels, [_gray_bits(i, width) for i in range(len(levels))]


def _axes_product(axes: list[tuple[np.ndarray, list[str]]]) -> Constellation:
    """Cartesian product of labeled 1D axes, concatenating Gray labels."""
    pts = [[]]
    labs = [""]
    for levels, bits in axes:
        pts = [p + [lv] for p in pts for lv in levels]
        labs = [s + b for s in labs for b in bits]
    return Constellation(np.array(pts, dtype=float), tuple(labs))


def qam_levels(M: int) -> np.ndarray:
    """Odd-integer PAM levels of the sqrt(M)-ary axis of a square M-QAM."""
    if M not in SUPPORTED_QAM_ORDERS:
        raise ValueError(f"unsupported modulation order {M}")
    side = int(round(np.sqrt(M)))
    return np.arange(-(side - 1), side, 2, dtype=float)


def make_qam_product(M: int, half_dims: int) -> Constellation:
    """Product of half_dims square M-QAM grids, as a constellation in R^(2*half_dims).

    Coordinates are the odd integers +-1, +-3, ...; labels concatenate the
    per-axis Gray codes.
    """
    if half_dims < 1:
        raise ValueError("half_dims must be at least 1")
    axis = _pam_axis(qam_levels(M))
    return _axes_product([axis] * (2 * half_dims))


def make_nuqam(params: NuqamParams) -> Constellation:
    """2D non-uniform QAM: the product of {-a_k..-a_1, a_1..a_k} with itself."""
    a = np.array(params.alpha)
    levels = np.concatenate([-a[::-1], a])
    axis = _pam_axis(levels)
    return _axes_product([axis, axis])


def normalize_energy(x: Constellation, target: float) -> Constellation:
    """Uniformly rescale so the average squared norm equals target."""
    if target <= 0:
        raise ValueError("target energy must be positive")
    e = x.energy
    if e == 0:
        raise ValueError("cannot normalize an all-zero constellation")
    scale = np.sqrt(target / e)
    return Constellation(x.points * scale, x.labels)


def rotate(x: Constellation, q: RotationMatrix) -> Constellation:
    """Apply a rotation to every point; labels carry over unchanged."""
    if q.n != x.n:
        raise ValueError(f"rotation is {q.n}-dimensional, constellation is {x.n}")
    y = Constellation(x.points @ q.entries.T, x.labels)
    # the carry: see Constellation.product_frame and Constellation.pair_differences
    object.__setattr__(y, "_rotated_from", (x, q))
    return y


def save(x: Constellation, dest) -> None:
    """Write {"n":..., "points":..., "labels":...} as JSON to a path or an open text stream.

    An unlabeled constellation has no "labels" field.
    """
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w") as fh:
            return save(x, fh)
    doc = {"n": x.n, "points": x.points.tolist()}
    if x.labels is not None:
        doc["labels"] = list(x.labels)
    json.dump(doc, dest)


def load(path) -> Constellation:
    """Read a constellation from JSON, re-validating all invariants; null labels mean none."""
    with open(path) as fh:
        doc = json.load(fh)
    pts = np.array(doc["points"], dtype=float)
    if pts.ndim != 2 or pts.shape[1] != doc["n"]:
        raise ValueError("points do not match the declared dimension")
    return Constellation(pts, doc.get("labels"))  # the constructor makes a tuple of a list


def save_points_csv(x: Constellation, path) -> None:
    """One point per row, for plotting."""
    np.savetxt(path, x.points, delimiter=",", fmt="%.17g")
