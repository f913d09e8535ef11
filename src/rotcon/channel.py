"""Rayleigh fast-fading channel: fade draws, ML decoding, BER and R0 bounds.

The channel acts per real coordinate: y_i = h_i x_i + z_i with h_i Rayleigh
(E[h^2] = 1, a fresh independent fade per transmitted vector) and z_i
Gaussian with variance N0.  Only this module knows the fading model: the
BER Monte Carlo and the fade-conditioned cutoff-rate bounds are built from
`sample_fade`, `transmit` and `ml_decode`, which take one vector or a (c, n)
batch.  Monte Carlo bit/symbol error counting is deterministic for a given
seed: the random stream is split into fixed-size substreams per Eb/N0 point
and per chunk, so results do not depend on how the work is partitioned.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation
from .metrics import ChannelSpec, rate_from_pair_sum

_CHUNK_SYMBOLS = 2048


@dataclass(frozen=True)
class FadeVector:
    """Non-negative fade diagonals: one (n,) realization or a (c, n) batch."""

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.ndim not in (1, 2) or np.any(h < 0):
            raise ValueError("fade vector must be 1D or 2D with non-negative entries")
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
    rng_algorithm: str = "numpy-PCG64-spawned-substreams"

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
    return FadeVector(np.sqrt(np.sum(g**2, axis=-1)))


def transmit(x: np.ndarray, h: FadeVector, ch: ChannelSpec, rng: np.random.Generator) -> np.ndarray:
    """Apply the fade and add Gaussian noise of variance N0 per coordinate."""
    x = np.asarray(x, dtype=float)
    if x.shape != h.h.shape:
        raise ValueError("point and fade dimensions disagree")
    return h.h * x + rng.normal(scale=np.sqrt(ch.N0), size=x.shape)


def ml_decode(x: Constellation, y: np.ndarray, h: FadeVector) -> int | np.ndarray:
    """Index (an array for a batch) of the point minimizing ||y - h*x'||^2; ties go low."""
    # ||y - h*x'||^2 expanded into two matrix products; the ||y||^2 term is
    # constant in the candidate and dropped
    d = (h.h**2) @ (x.points**2).T - 2.0 * (y * h.h) @ x.points.T
    dec = np.argmin(d, axis=-1)
    return int(dec) if dec.ndim == 0 else dec


def _exp_pair_sums(zsq: np.ndarray, cf: np.ndarray, hsq: np.ndarray, n0: float) -> np.ndarray:
    """Pair sums of exp(-sum_i z_i^2 h_i^2 / (8 N0)), one per row of the (c, n) squared fades."""
    return np.exp(-zsq @ hsq.T / (8.0 * n0)).T @ cf


def r0_conditional(x: Constellation, h: np.ndarray, ch: ChannelSpec) -> float:
    """Cutoff-rate bound conditioned on a fixed fade vector h, in bits."""
    h = FadeVector(h).h
    if h.shape != (x.n,):
        raise ValueError("fade vector must have n non-negative entries")
    z, counts = x.pair_differences
    s = _exp_pair_sums(z**2, counts.astype(float), h[None, :] ** 2, ch.N0)
    return rate_from_pair_sum(x.q_bits, float(s[0]))


def r0_expected_mc(
    x: Constellation, ch: ChannelSpec, num_channels: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo mean of the conditional bound over i.i.d. Rayleigh fades.

    Fades come from `sample_fade`.  Returns (mean, standard error);
    deterministic for a given seed.
    """
    if num_channels < 1:
        raise ValueError("num_channels must be at least 1")
    rng = np.random.default_rng(seed)
    z, counts = x.pair_differences
    zsq, cf = z**2, counts.astype(float)
    q = x.q_bits
    vals = np.empty(num_channels)
    chunk = max(1, min(num_channels, (1 << 24) // max(1, len(counts))))
    for lo in range(0, num_channels, chunk):
        c = min(chunk, num_channels - lo)
        s = _exp_pair_sums(zsq, cf, sample_fade((c, x.n), rng).h ** 2, ch.N0)
        vals[lo : lo + c] = q - np.log2(1.0 + s / 2.0**q)
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
    random substream, further split per fixed-size chunk of symbols.
    """
    if x.labels is None:
        raise ValueError("bit error counting requires a labeled constellation")
    if min_bits < 10**4:
        raise ValueError("min_bits must be at least 10^4")
    bits = np.array([[int(b) for b in lab] for lab in x.labels], dtype=np.uint8)
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
            bit_err += int(np.sum(bits[idx] != bits[dec]))
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
