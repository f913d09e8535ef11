"""Rotation and non-uniformity optimizers for the cutoff-rate objective.

Four routes: exhaustive search over the one-parameter rotation family,
the closed-form low-SNR optimum, descent by Cayley steps over all of SO(n),
and steepest ascent on the non-uniformity parameters of a 2D constellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, NuqamParams, make_nuqam, normalize_energy
from .liegroup import (
    DescentTrace,
    RotationMatrix,
    SkewMatrix,
    _power_of_two_exponent,
    expm_skew,
    geodesic_descent,
)
from .metrics import ChannelSpec, cutoff_rate, rate_from_pair_sum, rational_weights
# re-exported: the benchmark's tracer test patches and reads it here
from .metrics import difference_multiset as difference_multiset

_START_EPS = 1e-4  # off-diagonal size of the default descent start's generator
# rotated coordinates per block of the family grid (64 KiB): the kernel's
# temporaries stay this small too, whatever the grid's length
_BLOCK_DOUBLES = 8192


@dataclass(frozen=True)
class TSearchResult:
    """Outcome of the exhaustive search over the rotation family parameter."""

    t_opt: float
    objective: float
    profile: list[tuple[float, float]] | None = None


@dataclass(frozen=True)
class AlphaDescentResult:
    """Outcome of steepest ascent on the non-uniformity parameters."""

    alpha: NuqamParams
    objective: float
    iterations: int
    reason: str  # "gradient-tolerance" | "max-iterations" | "step-underflow"

    @property
    def converged(self) -> bool:
        return self.reason == "gradient-tolerance"


def low_snr_optimal_t(n: int) -> float:
    """Closed-form family parameter maximizing the radius-2 local rate: arccos(1/sqrt(n))."""
    _power_of_two_exponent(n)
    return math.acos(1.0 / math.sqrt(n))


def g_of_t(n: int, ch: ChannelSpec, t: float) -> float:
    """Per-column factor whose maximum over t locates the low-SNR optimum."""
    _power_of_two_exponent(n)
    c2, s2 = math.cos(t) ** 2, math.sin(t) ** 2
    return (1.0 + c2 / (2.0 * ch.N0)) * (1.0 + s2 / ((n - 1) * 2.0 * ch.N0)) ** (n - 1)


def grid_search_t(
    x: Constellation,
    ch: ChannelSpec,
    grid_step: float = 1e-4,
    keep_profile: bool = False,
) -> TSearchResult:
    """Maximize the cutoff rate of the rotated constellation over t in [0, pi/2].

    Evaluates R(Q(t) X) on the uniform grid; ties break toward smaller t.
    The differences come merged into classes whose terms are equal at every
    t (`x.family_classes`, built once per constellation).  The grid goes
    through `rational_weights` in blocks of t, one row per class and t, at
    most 8,192 rotated coordinates (64 KiB) a block; each t's pair sum is
    then the pairwise sum of its row times the class counts.
    """
    _power_of_two_exponent(x.n)
    if not 0 < grid_step <= math.pi / 4:
        raise ValueError("grid_step must be in (0, pi/4]")
    if len(x.pair_differences[0]) == 0:
        raise ValueError("degenerate constellation: no distinct pairs")
    z, za, cf = x.family_classes
    q, n, c = x.q_bits, x.n, len(cf)

    ts = np.arange(0.0, math.pi / 2 + grid_step / 2, grid_step)
    ts = ts[ts <= math.pi / 2 + 1e-15]
    b = max(1, _BLOCK_DOUBLES // (n * c))
    zt, zat = z.T[:, None, :], za.T[:, None, :]
    best_t, best_r = 0.0, -math.inf
    profile = [] if keep_profile else None
    for start in range(0, len(ts), b):
        block = ts[start:start + b]
        cos = np.array([math.cos(t) for t in block])[:, None]
        sin = np.array([math.sin(t) for t in block])[:, None]
        # u[i, j] is coordinate i of z @ Q(t_j).T, since Q(t) = cos(t) I + sin(t) A
        u = zt * cos + zat * sin
        # rows stored by column (see rational_weights); each row's pairwise sum
        # of counts x terms has the bits of `pair_sum_rational` at its t
        p = rational_weights(u.reshape(n, -1).T, ch.N0)[1].reshape(len(block), c)
        p *= cf
        for t, s in zip(block, p.sum(axis=1).tolist()):
            r = rate_from_pair_sum(q, s)
            if r > best_r:
                best_t, best_r = float(t), r
            if profile is not None:
                profile.append((float(t), r))
    return TSearchResult(t_opt=best_t, objective=best_r, profile=profile)


def cutoff_rate_gradient(x: Constellation, ch: ChannelSpec, q: RotationMatrix) -> np.ndarray:
    """Analytic Euclidean gradient of R(Q X) with respect to the entries of Q."""
    if q.n != x.n:
        raise ValueError("rotation and constellation dimensions disagree")
    return _rate_and_gradient(*x.pair_differences, x.q_bits, ch.N0, q.entries)[1]


def _rate_and_gradient(z, counts, q_bits, n0, qm):
    """R(Q X) and its Euclidean gradient in the entries of Q, from one pass over the rows."""
    u = (qm @ z.T).T  # z @ Q^T, stored by column (see rational_weights)
    w, p = rational_weights(u, n0)
    t = counts * p
    s = float(np.sum(t))
    # d(term)/du_a = -term * w_a * u_a / (4 N0), du_a/dq_ab = z_b, and dR/ds < 0
    scale = 2.0**-q_bits / ((1.0 + 2.0**-q_bits * s) * math.log(2.0) * 4.0 * n0)
    return rate_from_pair_sum(q_bits, s), scale * (((w * u) * t[:, None]).T @ z)


def default_start_rotation(n: int) -> RotationMatrix:
    """Small perturbation of the identity: exp(H), H constant +-_START_EPS off-diagonal."""
    h = _START_EPS * (np.tri(n, k=-1) - np.tri(n, k=-1).T)
    return expm_skew(SkewMatrix(h))


def optimize_rotation_full(
    x: Constellation, ch: ChannelSpec, q0: RotationMatrix | None = None, max_iters: int = 5000
) -> DescentTrace:
    """Descent on f(Q) = -R(Q X) over all of SO(n) (`geodesic_descent`).

    Finds a local optimum; the reported objective values in the trace are
    those of f (negated rate).
    """
    if q0 is None:
        q0 = default_start_rotation(x.n)
    def f_and_grad(q: RotationMatrix) -> tuple[float, np.ndarray]:
        r, g = _rate_and_gradient(*x.pair_differences, x.q_bits, ch.N0, q.entries)
        return -r, -g

    return geodesic_descent(f_and_grad, q0, max_iters=max_iters)


def default_nuqam_init(q_bits: int) -> NuqamParams:
    """Uniform odd-integer levels (1, 3, 5, ...), i.e. the standard QAM axis."""
    return NuqamParams(tuple(float(2 * i + 1) for i in range(2 ** (q_bits // 2 - 1))))


def _nuqam_rate_and_gradient(alpha: np.ndarray, q_bits: int, n0: float):
    """Cutoff rate of `normalize_energy(make_nuqam(alpha), q_bits)` and its exact gradient.

    The points are sl x sl, l = (-a_k..-a_1, a_1..a_k), s = sqrt(q_bits / E), E = 2 mean(a^2),
    so the pair sum is T^2 - (2k)^2, T = 2k + V, V = sum_{i != j} w(s (l_i - l_j)): O(k^2).
    """
    a = np.asarray(alpha, dtype=float)
    k, e = len(a), 2.0 * float(np.mean(a**2))
    s = math.sqrt(q_bits / e)
    lv = np.concatenate([-a[::-1], a])
    u = s * (lv[:, None] - lv[None, :])
    w = rational_weights(u.reshape(-1, 1), n0)[0].reshape(u.shape)
    np.fill_diagonal(w, 0.0)
    v = float(np.sum(w))
    pair_sum = v * (4 * k + v)  # T^2 - (2k)^2, without cancellation
    dw = -(u * w * w) / (4.0 * n0)  # dw/du, antisymmetric
    gl = 2.0 * s * np.sum(dw, axis=1)  # dV/dl at fixed s
    # a_r is l_{k+r} and -l_{k-1-r}; dV/ds = sum(dw u) / s, ds/da = -2 s a / (k E)
    dv = gl[k:] - gl[k - 1::-1] - 2.0 * a * float(np.sum(dw * u)) / (k * e)
    grad = -2.0 * (2 * k + v) * dv / ((2.0**q_bits + pair_sum) * math.log(2.0))
    return rate_from_pair_sum(q_bits, pair_sum), grad


def _project_alpha(alpha: np.ndarray, q_bits: int) -> np.ndarray:
    a = np.sort(np.maximum(alpha, 1e-9))
    # break exact ties so levels stay strictly increasing
    for i in range(1, len(a)):
        if a[i] <= a[i - 1]:
            a[i] = a[i - 1] * (1 + 1e-9) + 1e-12
    # keep the constellation at unit-bit energy so the iterates stay bounded
    return a * math.sqrt(q_bits / (2.0 * np.mean(a**2)))


def optimize_nuqam(
    q_bits: int,
    ch: ChannelSpec,
    max_iters: int = 10000,
    grad_tol: float = 1e-7,
    restarts: int = 0,
    seed: int = 0,
) -> AlphaDescentResult:
    """Steepest ascent of the cutoff rate over the non-uniformity parameters.

    Starts from `default_nuqam_init(q_bits)`.  Each trial costs one
    closed-form rate and exact gradient; each iterate is projected back to
    positive ascending levels at energy q_bits, and the objective is
    `cutoff_rate` of the result.  With restarts > 0, that many perturbed
    initial points are also tried and the best outcome returned.
    """
    if q_bits not in (4, 6, 8, 10):
        raise ValueError("q_bits must be one of 4, 6, 8, 10")

    def run(a0: np.ndarray) -> AlphaDescentResult:
        a = _project_alpha(a0, q_bits)
        fval, grad = _nuqam_rate_and_gradient(a, q_bits, ch.N0)
        step = 1.0
        reason = "max-iterations"
        it = 0
        for it in range(1, max_iters + 1):
            if np.linalg.norm(grad) < grad_tol:
                reason = "gradient-tolerance"
                break
            while step >= 1e-14:
                a_new = _project_alpha(a + step * grad, q_bits)
                f_new, g_new = _nuqam_rate_and_gradient(a_new, q_bits, ch.N0)
                if f_new > fval:
                    break
                step *= 0.5
            if step < 1e-14:
                reason = "step-underflow"  # no step >= 1e-14 along the exact gradient helps
                break
            a, fval, grad = a_new, f_new, g_new
            step = min(step * 2.0, 1e3)
        params = NuqamParams(tuple(a))
        return AlphaDescentResult(
            alpha=params,
            objective=cutoff_rate(normalize_energy(make_nuqam(params), float(q_bits)), ch),
            iterations=it,
            reason=reason,
        )

    base = np.array(default_nuqam_init(q_bits).alpha)
    best = run(base)
    if restarts > 0:
        rng = np.random.default_rng(seed)
        for _ in range(restarts):
            cand = run(base * rng.uniform(0.8, 1.25, size=base.shape))
            if cand.objective > best.objective:
                best = cand
    return best
