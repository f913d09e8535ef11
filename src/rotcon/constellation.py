"""Finite constellations in R^n: QAM products, non-uniform QAM, and I/O.

A constellation is a set of m = 2^q distinct points, optionally carrying a
Gray bit labeling.  All operations return new values; instances are
immutable and their points read-only, so each caches, on first use, its
pair-difference multiset and the rotation family's classes of it; `metrics`
builds and merges both.

A constellation that is a rotated Cartesian product of per-axis levels, as
every QAM and NUQAM design is, knows it through one `ProductFrame`: the
generators build it, `normalize_energy` scales its levels, `rotate` composes
its rotation and `save` writes it; `ProductFrame.fit` checks a loaded frame
against the points and fits any other point set to its own levels, once.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import metrics
from .liegroup import RotationMatrix, _power_of_two_exponent, skew_family

SUPPORTED_QAM_ORDERS = (4, 16, 64, 256, 1024)
_FRAME_TOL = 1e-12  # how closely a fitted frame must give back the points, relative


def _check_levels(levels) -> None:
    for lv in levels:
        if (lv.ndim != 1 or len(lv) == 0 or not np.all(np.isfinite(lv))
                or not np.all(np.diff(lv) > 0)):
            raise ValueError("frame levels must be finite and strictly ascending")


@dataclass(frozen=True)
class ProductFrame:
    """A constellation as a rotated Cartesian product of per-axis levels.

    Point `index[i_0, ..., i_{n-1}]` is `rotation @ (levels[0][i_0], ...,
    levels[n-1][i_{n-1}])`: exactly for a generated or detected product
    (rotation I), up to float rounding once rotated, rescaled or loaded.
    The arrays are read-only, and a derived frame shares those it keeps.
    """

    levels: tuple[np.ndarray, ...]  # strictly ascending, one array per axis
    index: np.ndarray  # point index of each tuple of level indices
    rotation: np.ndarray

    def __post_init__(self):
        _check_levels(self.levels)
        for a in (*self.levels, self.index, self.rotation):
            a.flags.writeable = False

    @classmethod
    def fit(cls, points: np.ndarray, levels: tuple[np.ndarray, ...],
            rotation: np.ndarray) -> "ProductFrame":
        """The frame of points on the grid of `levels` under `rotation`, else ValueError.

        Each point goes to the nearest cell of the grid in its unrotated
        coordinates `rotation^T p`.  The grid must have n axes, one point in
        each cell, and give back every point to _FRAME_TOL of the largest.
        """
        m, n = points.shape
        if rotation.shape != (n, n) or len(levels) != n:
            raise ValueError(f"the frame is not {n}-dimensional")
        _check_levels(levels)
        shape = tuple(len(lv) for lv in levels)
        if math.prod(shape) != m:
            raise ValueError(f"the frame has {math.prod(shape)} cells for {m} points")
        u = points @ rotation
        cells = [np.searchsorted((lv[1:] + lv[:-1]) / 2, u[:, i]) for i, lv in enumerate(levels)]
        index = np.full(m, -1, dtype=np.intp)
        index[np.ravel_multi_index(cells, shape)] = np.arange(m)
        if np.any(index < 0):
            raise ValueError("two points fall in one cell of the frame")
        grid = np.stack([lv[c] for lv, c in zip(levels, cells)], axis=1)
        err = np.max(np.abs(grid @ rotation.T - points))
        if not err <= _FRAME_TOL * np.max(np.abs(points)):  # NaN fails too
            raise ValueError(f"the frame gives back the points only to {err:.3g}")
        return cls(levels, index.reshape(shape), rotation)

    @classmethod
    def detect(cls, points: np.ndarray) -> "ProductFrame | None":
        """The unrotated frame of points that fill the grid of their axis levels, else None."""
        try:
            return cls.fit(points, tuple(map(np.unique, points.T)), np.eye(points.shape[1]))
        except ValueError:
            return None


@dataclass(frozen=True)
class Constellation:
    """m distinct points in R^n with m a power of two; labels are q-bit strings.

    `frame` is the points' product frame, built with them or fitted by
    `ProductFrame.fit`, or else found by `ProductFrame.detect`.  A frame holds
    one point per cell, so only a set without one is checked for duplicates.
    """

    points: np.ndarray
    labels: tuple[str, ...] | None = None
    frame: ProductFrame | None = field(default=None, kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)  # a copy: the caller's array stays writeable
        if pts.ndim != 2 or not np.all(np.isfinite(pts)):
            raise ValueError("points must be an m x n array of finite values")
        m = pts.shape[0]
        if m == 0 or m & (m - 1) != 0:
            raise ValueError(f"constellation size {m} is not a power of two")
        if self.frame is None:
            object.__setattr__(self, "frame", ProductFrame.detect(pts))
            if self.frame is None and len({tuple(p) for p in pts}) != m:
                raise ValueError("constellation points must be pairwise distinct")
        if self.labels is not None:
            labels = tuple(self.labels)
            q = self.q_bits_of(m)
            if len(labels) != m or len(set(labels)) != m:
                raise ValueError("labels must be unique, one per point")
            bits = "".join(labels)
            if set(map(len, labels)) != {q} or bits.count("0") + bits.count("1") != len(bits):
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
    def pair_differences(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (Z, counts) of `metrics.difference_multiset`, built on first use.

        A constellation with a product frame gets the product of its axis
        multisets under the frame's rotation, whatever made it.
        """
        z, counts = metrics.difference_multiset(self.points, self.frame)
        z.flags.writeable = counts.flags.writeable = False
        return z, counts

    @cached_property
    def family_classes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (z, Az, counts) of `metrics._t_invariant_classes`, built on first use.

        `pair_differences` merged into classes whose rotation-family terms
        are equal at every t, A the generator of `skew_family` in this
        dimension (ValueError if the family has none); every grid search over
        t on this constellation reads them.
        """
        a = skew_family(_power_of_two_exponent(self.n)).A.entries
        classes = metrics._t_invariant_classes(*self.pair_differences, a)
        for arr in classes:
            arr.flags.writeable = False
        return classes


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


def _axes_product(levels: tuple[np.ndarray, ...]) -> Constellation:
    """Cartesian product of ascending PAM axes, the first axis slowest.

    Labels concatenate the per-axis Gray codes in the same order.  A product
    whose points and labels need more than `metrics._RAW_PAIR_BYTES` is refused.
    """
    n = len(levels)
    shape = tuple(len(lv) for lv in levels)
    m = math.prod(shape)
    need = m * (8 * n + 57 + Constellation.q_bits_of(m))  # a label: a q-byte str and its slot
    if need > metrics._RAW_PAIR_BYTES:
        raise ValueError(f"the {m} points in n={n} dimensions and their labels need about "
                         f"{need} bytes (limit {metrics._RAW_PAIR_BYTES})")
    pts = np.stack(np.meshgrid(*levels, indexing="ij", copy=False), axis=-1).reshape(-1, n)
    gray = [[_gray_bits(i, Constellation.q_bits_of(k)) for i in range(k)] for k in shape]
    labels = tuple(map("".join, itertools.product(*gray)))
    frame = ProductFrame(levels, np.arange(m).reshape(shape), np.eye(n))
    return Constellation(pts, labels, frame=frame)


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
    return _axes_product((qam_levels(M),) * (2 * half_dims))


def make_nuqam(params: NuqamParams) -> Constellation:
    """2D non-uniform QAM: the product of {-a_k..-a_1, a_1..a_k} with itself."""
    a = np.array(params.alpha)
    levels = np.concatenate([-a[::-1], a])
    return _axes_product((levels, levels))


def normalize_energy(x: Constellation, target: float) -> Constellation:
    """Uniformly rescale so the average squared norm equals target; a frame's levels scale too."""
    if target <= 0:
        raise ValueError("target energy must be positive")
    e = x.energy
    if e == 0:
        raise ValueError("cannot normalize an all-zero constellation")
    scale = np.sqrt(target / e)
    f = x.frame
    if f is not None:
        f = ProductFrame(tuple(lv * scale for lv in f.levels), f.index, f.rotation)
    return Constellation(x.points * scale, x.labels, frame=f)


def rotate(x: Constellation, q: RotationMatrix) -> Constellation:
    """Apply a rotation to every point; labels carry over, a frame's rotation composes."""
    if q.n != x.n:
        raise ValueError(f"rotation is {q.n}-dimensional, constellation is {x.n}")
    f = x.frame
    if f is not None:
        f = ProductFrame(f.levels, f.index, q.entries @ f.rotation)
    return Constellation(x.points @ q.entries.T, x.labels, frame=f)


def save(x: Constellation, dest) -> None:
    """Write a constellation as JSON to a path or an open text stream.

    The document is {"n":..., "points":..., "labels":..., "frame": {"levels":
    [[...], ...], "rotation": [[...], ...]}}.  An unlabeled constellation has
    no "labels" field, and one without a product frame no "frame" field.
    """
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w") as fh:
            return save(x, fh)
    doc = {"n": x.n, "points": x.points.tolist()}
    if x.labels is not None:
        doc["labels"] = list(x.labels)
    f = x.frame
    if f is not None:
        doc["frame"] = {"levels": [lv.tolist() for lv in f.levels],
                        "rotation": f.rotation.tolist()}
    json.dump(doc, dest)


def load(path) -> Constellation:
    """Read a constellation from JSON, re-validating all invariants; null labels mean none.

    A "frame" field is fitted to the points by `ProductFrame.fit`; a file
    without one is searched for a frame as any point set is.
    """
    with open(path) as fh:
        doc = json.load(fh)
    try:
        pts = np.array(doc["points"], dtype=float)
        n, labels, frame = doc["n"], doc.get("labels"), doc.get("frame")
        if frame is not None:
            frame = (tuple(np.array(lv, dtype=float) for lv in frame["levels"]),
                     RotationMatrix(np.array(frame["rotation"], dtype=float)).entries)
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed constellation file: {e!r}") from None
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValueError("points do not match the declared dimension")
    if labels is not None and not (isinstance(labels, list)
                                   and all(isinstance(b, str) for b in labels)):
        raise ValueError("labels must be a list of bit strings")
    frame = None if frame is None else ProductFrame.fit(pts, *frame)
    # the constructor makes a tuple of a list of labels
    return Constellation(pts, labels, frame=frame)


def save_points_csv(x: Constellation, path) -> None:
    """One point per row, for plotting."""
    np.savetxt(path, x.points, delimiter=",", fmt="%.17g")
