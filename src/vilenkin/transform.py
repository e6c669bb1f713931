"""The Vilenkin character system, fast mixed-radix transform, and kernels.

The characters psi_n are products of generalized Rademacher functions
r_k(x) = exp(2*pi*i*x_k/m_k) raised to the digits of n.  Because both points
and frequencies are indexed by the same mixed-radix system, analysis and
synthesis factor into one dense size-m_k character transform per digit axis.
Consecutive digits are fused into runs of at most 32 cells (a larger radix
runs alone), and each run is applied as one Kronecker-product matrix
(Fino-Algazi), so a pass is one matmul per run and costs O(M_N * sum of the
run sizes) instead of O(M_N^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator

import numpy as np

from .funcspace import GridFunction, lp_quasinorm
from .group import GeneratorSequence, digit_values, to_digits

__all__ = [
    "SpectralVector",
    "rademacher",
    "vilenkin_fn",
    "forward_transform",
    "inverse_transform",
    "naive_forward_transform",
    "synthesize",
    "synthesize_rows",
    "dirichlet",
    "dirichlet_rows",
    "fejer_kernel",
    "fejer_kernel_rows",
    "fejer_mean_rows",
    "partial_sum_rows",
    "partial_sum",
    "fejer_mean",
    "lebesgue_constant",
]


@dataclass(frozen=True)
class SpectralVector:
    """Fourier coefficients f_hat(0), ..., f_hat(M_N - 1) of a GridFunction."""

    gen: GeneratorSequence
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.gen.size,):
            raise ValueError(
                f"expected {self.gen.size} coefficients, got shape {c.shape}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


# Largest cell count of a run of digits fused into one matrix.  A run of G
# cells costs G multiply-adds per cell, so longer runs trade more arithmetic
# for fewer, larger BLAS calls; a single radix above the cap runs alone.
# Median ms of one synthesis pass at caps 16 / 32 / 64, interleaved, one
# BLAS thread, 2-core Xeon, numpy 2.4:
#   Walsh(9), 128 rows        2.38 /  2.23 /  2.58
#   Walsh(12), 128 rows       15.8 /  16.8 /  20.7
#   Walsh(13), one row        0.18 /  0.17 /  0.24
#   Walsh(22), one row         283 /   271 /   285   (11 runs each)
#   cycle:2,3,4 depth 12      12.1 /   9.1 /   9.6
#   2,2,2,2,3,5, 5 rows      0.021 / 0.020 / 0.038
#   3^13, one row               79 /    82 /    82   (same runs at every cap)
#   Walsh(6), 16 rows        0.027 / 0.037 / 0.032   (one 64-cell run -> 32 + 2)
# At 64, Walsh(9) leaves a second run of 8 cells: 72 multiply-adds per cell
# where runs of 32 and 16 cost 48.  16 loses on cycle:2,3,4, where it splits
# the 24-cell runs 2*3*4 into runs of 6 to 12 cells.
_BLOCK_CELLS = 32


@lru_cache(maxsize=None)
def _char_matrix(base: int, sign: int) -> np.ndarray:
    """Dense size-m character matrix exp(sign * 2*pi*i * j*x / m)."""
    jx = np.outer(np.arange(base), np.arange(base))
    return np.exp(sign * 2j * np.pi * jx / base)


@lru_cache(maxsize=None)
def _digit_runs(m: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Split the radices, from digit 0 up, into runs of <= _BLOCK_CELLS cells."""
    runs: list[tuple[int, ...]] = []
    for base in m:
        if runs and math.prod(runs[-1]) * base <= _BLOCK_CELLS:
            runs[-1] += (base,)
        else:
            runs.append((base,))
    return tuple(runs)


@lru_cache(maxsize=None)
def _run_matrix(radices: tuple[int, ...], sign: int) -> np.ndarray:
    """Kronecker product of the radices' character matrices, highest digit
    outermost, so row and column indices follow the mixed-radix order."""
    w = np.ones((1, 1), dtype=np.complex128)
    for base in reversed(radices):
        w = np.kron(w, _char_matrix(base, sign))
    return w


def _axis_pass(values: np.ndarray, gen: GeneratorSequence, sign: int) -> np.ndarray:
    """Apply the size-m_k character transform along every digit axis.

    ``values`` may carry leading batch dimensions; the last axis must have
    length M_N.  Each run of digits is one matmul on a reshaped view: the run
    of G cells below ``post`` cells of lower digits is the second-to-last
    axis of (batch, M_N / (G * post), G, post).  The batch stays an axis of
    its own, so every row goes through the same BLAS calls however many rows
    there are, and a row's result is bit-identical batched or alone.
    """
    lead = values.shape[:-1]
    batch = math.prod(lead)
    arr = values
    post = 1
    for radices in _digit_runs(gen.m):
        w = _run_matrix(radices, sign)
        g = w.shape[0]
        pre = gen.size // (g * post)
        if post == 1:
            arr = arr.reshape(batch, pre, g) @ w.T
        else:
            arr = w @ arr.reshape(batch, pre, g, post)
        post *= g
    return arr.reshape(lead + (gen.size,))


def forward_transform(f: GridFunction) -> SpectralVector:
    """Fast analysis: coeffs[j] = (1/M_N) * sum_x f(x) * conj(psi_j(x))."""
    return SpectralVector(f.gen, _axis_pass(f.values, f.gen, -1) / f.gen.size)


def inverse_transform(spec: SpectralVector) -> GridFunction:
    """Fast synthesis: f(x) = sum_j coeffs[j] * psi_j(x)."""
    return GridFunction(spec.gen, _axis_pass(spec.coeffs, spec.gen, +1))


def naive_forward_transform(f: GridFunction) -> SpectralVector:
    """O(M_N^2) reference analysis via explicit inner products."""
    gen = f.gen
    coeffs = np.empty(gen.size, dtype=np.complex128)
    for j in range(gen.size):
        coeffs[j] = np.mean(f.values * np.conj(vilenkin_fn(j, gen).values))
    return SpectralVector(gen, coeffs)


def synthesize(gen: GeneratorSequence, coeffs: np.ndarray) -> GridFunction:
    """Synthesis of a (possibly short) coefficient vector."""
    full = np.zeros(gen.size, dtype=np.complex128)
    full[: len(coeffs)] = coeffs
    return inverse_transform(SpectralVector(gen, full))


def rademacher(k: int, gen: GeneratorSequence) -> GridFunction:
    """r_k(x) = exp(2*pi*i * x_k / m_k)."""
    if not 0 <= k < gen.depth:
        raise ValueError(f"rank {k} out of range [0, {gen.depth})")
    return GridFunction(
        gen, np.exp(2j * np.pi * digit_values(gen, k) / gen.m[k])
    )


def vilenkin_fn(n: int, gen: GeneratorSequence) -> GridFunction:
    """The n-th character psi_n = prod_k r_k^{n_k}, unimodular on the group."""
    exp = to_digits(n, gen)
    phase = np.zeros(gen.size)
    for k, d in enumerate(exp.digits):
        if d:
            phase += d * digit_values(gen, k) / gen.m[k]
    return GridFunction(gen, np.exp(2j * np.pi * phase))


def _truncated(coeffs: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """The S_n multiplier: for each n in ``ns`` a row of coeffs below n and
    +0 from n on.  Copying into zeros, not multiplying by 0, keeps -0.0 out."""
    rows = np.zeros((ns.size, len(coeffs)), dtype=np.complex128)
    for row, n in zip(rows, ns.tolist()):
        row[:n] = coeffs[:n]
    return rows


def _dirichlet_coeffs(ns: np.ndarray, size: int) -> np.ndarray:
    """Coefficient rows of D_n, the partial sums of the all-ones spectrum."""
    return _truncated(np.ones(size), ns)


def _fejer_weights(ns: np.ndarray, size: int) -> np.ndarray:
    """Fejer multipliers for each n in ``ns``: (n - 1 - j) / n for j < n - 1,
    0 from n - 1 on.  They are the coefficients of K_n and the weights that
    take the coefficients of f to those of sigma_n f."""
    top = min(size, max(ns.tolist(), default=1))
    weights = np.zeros((ns.size, size))
    col = ns[:, None]
    np.divide(np.maximum(col - 1 - np.arange(top), 0), col, out=weights[:, :top])
    return weights


def _orders(ns: Iterable[int], gen: GeneratorSequence, low: int = 1) -> np.ndarray:
    """Orders as an integer array, each checked to be an integer in [low, M_N]."""
    ns = np.asarray(ns if isinstance(ns, np.ndarray) else list(ns))
    if ns.dtype.kind == "f":
        frac = ns[~np.isfinite(ns) | (ns != np.round(ns))]
        if frac.size:
            raise ValueError(f"n={frac[0]} is not an integer")
    ns = ns.astype(np.int64, copy=False)
    bad = ns[(ns < low) | (ns > gen.size)]
    if bad.size:
        raise ValueError(f"n={bad[0]} out of range [{low}, {gen.size}]")
    return ns


def synthesize_rows(coeff_rows: np.ndarray, gen: GeneratorSequence) -> np.ndarray:
    """Batched synthesis: each row along the last axis becomes sum_j c_j psi_j.

    ``coeff_rows`` may carry any leading batch dimensions; its last axis must
    have length M_N.  Every row is bit-identical to its synthesis alone.
    """
    rows = np.asarray(coeff_rows, dtype=np.complex128)
    if rows.ndim == 0 or rows.shape[-1] != gen.size:
        raise ValueError(
            f"expected rows of {gen.size} coefficients, got shape {rows.shape}"
        )
    return _axis_pass(rows, gen, +1)


# Bytes of synthesized rows one block of kernel rows holds (1024 complex
# cells); on a grid of more cells a block is a single row.  Larger blocks
# made no faster verify/kernels/lebesgue runs but raised their peak RSS
# (by 0.2 MiB at 64 KiB and 1.4 MiB at 256 KiB, on six-digit grids of 192
# or 240 cells, 2-core Xeon, one BLAS thread); 4 KiB blocks were slower.
_ROW_BLOCK_BYTES = 1 << 14


def _kernel_blocks(
    ns: np.ndarray,
    gen: GeneratorSequence,
    coefficients: Callable[[np.ndarray, int], np.ndarray],
    vanish_at_one: bool,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    step = max(1, _ROW_BLOCK_BYTES // (16 * gen.size))
    for start in range(0, ns.size, step):
        block = ns[start : start + step]
        rows = synthesize_rows(coefficients(block, gen.size), gen)
        if vanish_at_one:
            rows[block == 1] = 0.0  # K_1 = 0 exactly, as in fejer_kernel
        yield block, rows


def dirichlet(n: int, gen: GeneratorSequence) -> GridFunction:
    """D_n = sum_{k < n} psi_k, materialized on the depth-N grid."""
    coeffs = _dirichlet_coeffs(_orders([n], gen), gen.size)[0]
    return GridFunction(gen, synthesize_rows(coeffs, gen))


def dirichlet_rows(
    ns: Iterable[int], gen: GeneratorSequence
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """D_n for every n in ``ns``, in order, as (orders, rows) blocks.

    A block holds at most _ROW_BLOCK_BYTES of rows (or a single row), and
    row i of a block is bit-identical to ``dirichlet(orders[i], gen).values``.
    """
    return _kernel_blocks(_orders(ns, gen), gen, _dirichlet_coeffs, False)


def fejer_kernel(n: int, gen: GeneratorSequence) -> GridFunction:
    """K_n = (1/n) * sum_{k=0}^{n-1} D_k with D_0 = 0.

    Swapping the two sums gives the multiplier form
    n * K_n = sum_{j <= n-2} (n - 1 - j) * psi_j, used here for speed.
    """
    ns = _orders([n], gen)
    if ns[0] == 1:
        return GridFunction.constant(gen, 0.0)
    weights = _fejer_weights(ns, gen.size)[0]
    return GridFunction(gen, synthesize_rows(weights, gen))


def fejer_kernel_rows(
    ns: Iterable[int], gen: GeneratorSequence
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """K_n for every n in ``ns``, in blocks like ``dirichlet_rows``."""
    return _kernel_blocks(_orders(ns, gen), gen, _fejer_weights, True)


def fejer_mean_rows(
    coeffs: np.ndarray, ks: np.ndarray, gen: GeneratorSequence
) -> np.ndarray:
    """sigma_k f for every k in ``ks``, one row each, from f's coefficients."""
    return synthesize_rows(_fejer_weights(_orders(ks, gen), gen.size) * coeffs, gen)


def partial_sum_rows(
    coeffs: np.ndarray, ns: Iterable[int], gen: GeneratorSequence
) -> np.ndarray:
    """S_n f for every n in ``ns`` (0 <= n <= M_N), one row each, from f's
    coefficients."""
    return synthesize_rows(_truncated(coeffs, _orders(ns, gen, low=0)), gen)


def partial_sum(f: GridFunction, n: int) -> GridFunction:
    """S_n f = sum_{k < n} f_hat(k) psi_k, with S_0 f = 0."""
    # The one-row case of partial_sum_rows, spelled out so that f's
    # coefficients are freed before the synthesis: one grid less at peak.
    ns = _orders([n], f.gen, low=0)
    rows = _truncated(forward_transform(f).coeffs, ns)
    return GridFunction(f.gen, synthesize_rows(rows, f.gen)[0])


def fejer_mean(f: GridFunction, n: int) -> GridFunction:
    """sigma_n f = (1/n) * sum_{k < n} S_k f, via the coefficient multiplier.

    Coefficient j < n - 1 appears in S_k f for j < k <= n - 1, i.e. with
    total weight (n - 1 - j)/n; coefficients at or above n - 1 drop out.
    """
    ns = _orders([n], f.gen)
    coeffs = forward_transform(f).coeffs
    weights = _fejer_weights(ns, f.gen.size)[0]
    return inverse_transform(SpectralVector(f.gen, coeffs * weights))


def lebesgue_constant(n: int, gen: GeneratorSequence) -> float:
    """L_n = ||D_n||_1."""
    return lp_quasinorm(dirichlet(n, gen), 1.0)
