"""Reference computations written independently of the rotcon code paths.

They check outputs the frozen references do not cover: the objective an
optimizer reports for the point it returns, and BER counts for a seed that
has no frozen reference.
"""

from __future__ import annotations

import math

import numpy as np

# ber_monte_carlo splits each Eb/N0 point's random stream into substreams of
# this many symbols; the replay must draw from the same substreams.
CHUNK_SYMBOLS = 2048


def cutoff_rate(points: np.ndarray, q_bits: int, n0: float) -> float:
    """Cutoff rate from the sum over all ordered pairs x != y, without compression."""
    d = points[:, None, :] - points[None, :, :]
    w = np.prod(1.0 / (1.0 + d**2 / (8.0 * n0)), axis=2)
    np.fill_diagonal(w, 0.0)
    return q_bits - math.log2(1.0 + float(w.sum()) / 2.0**q_bits)


def nuqam_points(alpha, energy: float) -> np.ndarray:
    """2D non-uniform QAM with levels +-alpha, scaled to average energy `energy`."""
    a = np.asarray(alpha, dtype=float)
    levels = np.concatenate([-a[::-1], a])
    pts = np.array([(u, v) for u in levels for v in levels])
    return pts * math.sqrt(energy / np.mean(np.sum(pts**2, axis=1)))


def ber_replay(points: np.ndarray, labels, n0: float, min_bits: int, seed: int) -> dict:
    """Brute-force ML replay of one Eb/N0 point drawn from the same spawned streams.

    Mirrors the stream layout of a single-point `ber_monte_carlo` call:
    SeedSequence(seed).spawn(1), then one substream per chunk of symbols,
    each drawing symbol indices, fades and noise in that order.
    """
    m, n = points.shape
    q = m.bit_length() - 1
    bits = np.array([[int(b) for b in lab] for lab in labels], dtype=np.uint8)
    symbols = -(-min_bits // q)
    (point_seq,) = np.random.SeedSequence(seed).spawn(1)
    sq = (points**2).T
    bit_errors = symbol_errors = done = 0
    for cseq in point_seq.spawn(-(-symbols // CHUNK_SYMBOLS)):
        c = min(CHUNK_SYMBOLS, symbols - done)
        rng = np.random.default_rng(cseq)
        idx = rng.integers(0, m, size=c)
        g = rng.normal(scale=math.sqrt(0.5), size=(c, n, 2))
        h = np.sqrt(np.sum(g**2, axis=2))
        y = h * points[idx] + rng.normal(scale=math.sqrt(n0), size=(c, n))
        dec = np.argmin((h**2) @ sq - 2.0 * (y * h) @ points.T, axis=1)
        symbol_errors += int(np.count_nonzero(dec != idx))
        bit_errors += int(np.sum(bits[idx] != bits[dec]))
        done += c
    return {"bits": symbols * q, "bit_errors": bit_errors,
            "symbols": symbols, "symbol_errors": symbol_errors}
