"""Skew-symmetric matrices, rotation matrices, and gradient descent on SO(n).

Provides the recursive Hadamard construction, the one-parameter rotation
family Q(t) = cos(t)I + sin(t)A generated by a skew matrix with A^2 = -I,
the matrix exponential and logarithm between so(n) and SO(n) in closed form
from one symmetric eigendecomposition each, the translated gradient field on
SO(n), and a descent by Cayley steps with Barzilai-Borwein step sizes.
Everything here needs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ORTHO_TOL = 1e-10
MAX_HADAMARD_K = 12


@dataclass(frozen=True)
class SkewMatrix:
    """Element of so(n): a real n x n matrix with M = -M^T exactly as stored."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("skew matrix must be square")
        if not np.array_equal(m, -m.T):
            raise ValueError("matrix is not exactly skew-symmetric")
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class RotationMatrix:
    """Element of SO(n): QQ^T = I and det(Q) = 1 within 1e-10."""

    entries: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.entries, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("rotation matrix must be square")
        if not np.all(np.isfinite(q)):
            raise ValueError("rotation matrix entries must be finite")
        n = q.shape[0]
        ortho_err = np.max(np.abs(q @ q.T - np.eye(n)))
        det_err = abs(np.linalg.det(q) - 1.0)
        if ortho_err > ORTHO_TOL or det_err > ORTHO_TOL:
            raise ValueError(
                f"not a rotation matrix: |QQ^T - I|_max = {ortho_err:.3g}, "
                f"|det - 1| = {det_err:.3g}"
            )
        object.__setattr__(self, "entries", q)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class RotationFamily:
    """One-parameter subgroup Q(t) = cos(t)I + sin(t)A, requiring A^2 = -I."""

    A: SkewMatrix

    def __post_init__(self):
        a = self.A.entries
        err = np.max(np.abs(a @ a + np.eye(a.shape[0])))
        if err > ORTHO_TOL:
            raise ValueError(f"generator does not satisfy A^2 = -I: err = {err:.3g}")

    @property
    def n(self) -> int:
        return self.A.n


@dataclass
class DescentTrace:
    """Record of a descent run on SO(n): (iteration, Q, f(Q), |X_f(Q)|_F) rows."""

    iterates: list[tuple[int, RotationMatrix, float, float]] = field(default_factory=list)
    reason: str = ""  # "gradient-tolerance" | "max-iterations" | "step-underflow"

    @property
    def converged(self) -> bool:
        return self.reason == "gradient-tolerance"

    @property
    def final_rotation(self) -> RotationMatrix:
        return self.iterates[-1][1]

    @property
    def final_objective(self) -> float:
        return self.iterates[-1][2]


def hadamard(k: int) -> np.ndarray:
    """Sylvester Hadamard matrix of order 2^k, built recursively in integers."""
    if not 0 <= k <= MAX_HADAMARD_K:
        raise ValueError(f"k must be in 0..{MAX_HADAMARD_K}, got {k}")
    h = np.array([[1]], dtype=np.int64)
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    return h


def _power_of_two_exponent(n: int) -> int:
    """k with n = 2^k, n >= 2: the dimensions the rotation family exists in."""
    k = n.bit_length() - 1
    if n < 2 or 2**k != n:
        raise ValueError(f"family rotation needs a power-of-two dimension, got {n}")
    return k


def skew_family(k: int) -> RotationFamily:
    """Rotation family in dimension 2^k generated by the Hadamard-block skew matrix.

    The integer matrix B is built by B_1 = [0], B_{2m} = [[B, H], [-H, B]]
    with H the order-m Hadamard matrix, then scaled by (2^k - 1)^(-1/2) so
    that the generator squares to -I.  B is antisymmetric and division is
    sign-symmetric, so the scaled matrix is exactly antisymmetric.
    """
    return RotationFamily(SkewMatrix(skew_family_integer(k) / np.sqrt(2**k - 1)))


def skew_family_integer(k: int) -> np.ndarray:
    """Unscaled integer generator B_{2^k}; satisfies B^2 = -(2^k - 1) I exactly."""
    if not 1 <= k <= MAX_HADAMARD_K:
        raise ValueError(f"k must be in 1..{MAX_HADAMARD_K}, got {k}")
    b = np.array([[0]], dtype=np.int64)
    for j in range(k):
        h = hadamard(j)
        b = np.block([[b, h], [-h, b]])
    return b


def rotation_at(family: RotationFamily, t: float) -> RotationMatrix:
    """Evaluate the family at parameter t: cos(t)I + sin(t)A."""
    n = family.n
    return RotationMatrix(np.cos(t) * np.eye(n) + np.sin(t) * family.A.entries)


def expm_skew(a: SkewMatrix) -> RotationMatrix:
    """Matrix exponential so(n) -> SO(n): exp A = cos(S) + sinc(S) A with S^2 = -A^2.

    -A^2 = V diag(theta^2) V^T is symmetric, and cos and sinc are even, so
    both are read off one symmetric eigendecomposition.
    """
    if not np.all(np.isfinite(a.entries)):
        raise ValueError("skew matrix has non-finite entries")
    m = a.entries
    mu, v = np.linalg.eigh(-(m @ m))
    theta = np.sqrt(np.maximum(mu, 0.0))
    return RotationMatrix((v * np.cos(theta)) @ v.T + ((v * np.sinc(theta / np.pi)) @ v.T) @ m)


def logm_rotation(q: RotationMatrix) -> SkewMatrix:
    """Principal matrix logarithm SO(n) -> so(n): log Q = V diag(theta / sin theta) V^T K.

    (Q + Q^T)/2 = V diag(cos theta) V^T, and K = (Q - Q^T)/2 moves each
    eigenvector within its plane of rotation by sin theta, so theta =
    atan2(|K v|, cos theta) holds to rounding at every angle in [0, pi].
    Fails when an eigenvalue e^(i theta) of Q lies within 1e-8 of -1 (no
    principal branch).
    """
    qm = q.entries
    c, v = np.linalg.eigh(0.5 * (qm + qm.T))
    k = 0.5 * (qm - qm.T)
    theta = np.arctan2(np.linalg.norm(k @ v, axis=0), c)
    if np.min(2.0 * np.cos(0.5 * theta)) < 1e-8:  # |e^(i theta) + 1|
        raise ValueError("eigenvalue too close to -1: principal logarithm undefined")
    m = ((v / np.sinc(theta / np.pi)) @ v.T) @ k
    return SkewMatrix(0.5 * (m - m.T))


def gradient_field(grad_f_at_q: np.ndarray, q: RotationMatrix) -> SkewMatrix:
    """Translated gradient of f restricted to SO(n): G Q^T - Q G^T.

    The result vanishes exactly at critical points of f on SO(n).
    """
    g = np.asarray(grad_f_at_q, dtype=float)
    if g.shape != q.entries.shape:
        raise ValueError("gradient and rotation dimensions disagree")
    m = g @ q.entries.T
    return SkewMatrix(m - m.T)


def geodesic_descent(
    f_and_grad,
    q0: RotationMatrix,
    step: float = 0.1,
    max_iters: int = 5000,
    grad_tol: float = 1e-8,
) -> DescentTrace:
    """Minimize f over SO(n) by Cayley steps Q <- (I + h/2 X)^-1 (I - h/2 X) Q, X = X_f(Q).

    f_and_grad(Q), called once per trial rotation, returns f(Q) and its n x n
    Euclidean partials; those of the accepted trial become the skew field
    X_f(Q) of the next iteration.  The Cayley step is a rotation for every h
    and leaves Q along -X Q, where f has slope -|X|^2 / 2.  The first trial
    takes h = step; each later iteration starts from the two Barzilai-Borwein
    sizes of the last accepted step in turn (Wen and Yin, Math. Program. 142,
    2013).  A trial Q+ is accepted when f(Q+) <= f(Q) - 1e-4 h |X|^2 / 2
    (Armijo), else h is halved.  Terminates on gradient tolerance, iteration
    budget, or step underflow below 1e-12.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    rq = RotationMatrix(q0.entries.copy())
    fval, g = f_and_grad(rq)
    if not np.isfinite(fval):
        raise ValueError("objective is not finite at the initial rotation")

    trace = DescentTrace()
    eye = np.eye(rq.n)
    h = step
    for it in range(max_iters + 1):
        xf = gradient_field(g, rq).entries
        gnorm = float(np.linalg.norm(xf))
        trace.iterates.append((it, rq, fval, gnorm))
        if gnorm <= grad_tol:
            trace.reason = "gradient-tolerance"
            return trace
        if it == max_iters:
            break
        xq = xf @ rq.entries
        if it > 0:
            # s and y: the last step and the change of the direction field along it
            s, y = rq.entries - q_prev, xq - xq_prev
            sy = abs(float(np.vdot(s, y)))
            if sy > 0:  # else keep the last accepted size
                h = float(np.vdot(s, s)) / sy if it % 2 else sy / float(np.vdot(y, y))
        while True:
            r_new = RotationMatrix(np.linalg.solve(eye + 0.5 * h * xf,
                                                   rq.entries - 0.5 * h * xq))
            f_new, g_new = f_and_grad(r_new)
            if not np.isfinite(f_new):
                raise ValueError("objective became non-finite during descent")
            # not also f_new < fval: within a few steps of grad_tol the decrease
            # of a good step falls below one ulp of f, and equal f must pass
            if f_new <= fval - 0.5e-4 * h * gnorm**2:
                break
            h *= 0.5
            if h < 1e-12:
                trace.reason = "step-underflow"
                return trace
        q_prev, xq_prev = rq.entries, xq
        rq, fval, g = r_new, f_new, g_new
    trace.reason = "max-iterations"
    return trace


def save_rotation_csv(q: RotationMatrix, path) -> None:
    """Write a rotation matrix as row-major plain-text CSV at full precision."""
    np.savetxt(path, q.entries, delimiter=",", fmt="%.17g")


def load_rotation_csv(path) -> RotationMatrix:
    """Read a rotation matrix from CSV; validates orthogonality on load."""
    m = np.loadtxt(path, delimiter=",", ndmin=2)
    return RotationMatrix(m)
