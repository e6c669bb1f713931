"""Martingales on the cylinder filtration and Hardy-space machinery.

The depth-n conditional expectation averages a step function over depth-n
cylinders.  On this filtration a martingale is its top level f: level n is
always E_n f = conditional_expectation(f, n), so a martingale is stored as
one GridFunction and its levels are never kept.  The maximal function
sup_n |E_n f| defines the H_p quasi-norm.  This module also provides
p-atoms, the weighted strong-convergence sums of Fejer means and partial
sums, and the explicit atomic martingale whose Fejer means make the
unweighted strong sum diverge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .funcspace import GridFunction, lp_quasinorm
from .group import GeneratorSequence, cylinder_indices, integer_arg, integer_args
from .transform import (
    fejer_mean_blocks,
    forward_transform,
    partial_sum_rows,
    rademacher,
    synthesize_rows,
)

__all__ = [
    "Atom",
    "maximal_function",
    "function_hardy_quasinorm",
    "is_p_atom",
    "CounterexampleMartingale",
    "counterexample_martingale",
    "select_alphas",
    "strong_sums",
    "sigma_norm_profile",
    "partial_sum_norm_profile",
]


def _maximal_abs(values: np.ndarray, gen: GeneratorSequence) -> np.ndarray:
    """max_n |depth-n cylinder average| over ranks 0..N, per trailing-axis row.

    One coarse-to-fine pass in O(M_N) per row.  The rank-n averages form a
    vector of length M_n (cell i lies in the cylinder of i mod M_n), and each
    is the mean of the next finer rank's averages over the m_n cylinder
    mates.  The maximum then grows upward from rank 0, one digit at a time:
    star_{n+1} = max(|rank-(n+1) averages|, star_n broadcast over the mates).
    This is the maximal function of the conditional-expectation martingale,
    built without materializing its levels on the full grid.
    """
    lead = values.shape[:-1]
    means = [values]  # the rank-N average is the function itself
    for n in reversed(range(gen.depth)):
        means.append(means[-1].reshape(lead + (gen.m[n], gen.scale[n])).mean(axis=-2))
    star = np.abs(means.pop())
    for n in range(gen.depth):
        finer = np.abs(means.pop())
        view = finer.reshape(lead + (gen.m[n], gen.scale[n]))
        np.maximum(view, star[..., None, :], out=view)
        star = finer
    return star


def maximal_function(f: GridFunction) -> GridFunction:
    """f* = max_n |E_n f| pointwise over ranks 0..N."""
    return GridFunction(f.gen, _maximal_abs(f.values, f.gen))


def function_hardy_quasinorm(f: GridFunction, p: float) -> float:
    """||f||_{H_p} = ||f*||_p for the martingale of conditional expectations of f."""
    return lp_quasinorm(maximal_function(f), p)


@dataclass(frozen=True)
class Atom:
    """An atom on the rank-``rank`` cylinder of ``base``; ``is_p_atom``
    checks it is a p-atom: mean zero there, bounded by mu(I)^{-1/p}."""

    values: GridFunction
    rank: int
    base: tuple[int, ...]


def is_p_atom(
    a: GridFunction,
    rank: int,
    base: Sequence[int],
    p: float,
) -> tuple[bool, dict[str, bool]]:
    """Check the three atom conditions to 1e-9; returns (ok, per-condition results)."""
    if not 0 < p <= 1:
        raise ValueError(f"atoms need 0 < p <= 1, got {p}")
    gen = a.gen
    idx = cylinder_indices(base, rank, gen)
    measure = 1.0 / gen.scale[rank]
    mean = abs(np.sum(a.values[idx])) / gen.size
    off = np.delete(np.abs(a.values), idx)
    tol = 1e-9
    checks = {
        "mean_zero": bool(mean <= tol),
        "sup_bound": bool(np.max(np.abs(a.values)) <= measure ** (-1.0 / p) + tol),
        "support": bool(off.size == 0 or np.max(off) <= tol),
    }
    return all(checks.values()), checks


# --- the divergence construction ---------------------------------------------


@dataclass(frozen=True)
class CounterexampleMartingale:
    """Atomic martingale built from frequency blocks [M_a, 2 M_a).

    Atom k is M_a * r_a * D_{M_a} at rank a = alphas[k], scaled by
    lambda_k = phi(2 M_a) / log M_a; ``function`` is the top level
    sum_k lambda_k a_k, which carries the full spectrum.
    """

    gen: GeneratorSequence
    alphas: tuple[int, ...]
    lambdas: tuple[float, ...]
    function: GridFunction

    def atoms(self) -> tuple[Atom, ...]:
        """The atoms a_k, built on demand (each is a full grid)."""
        base = (0,) * self.gen.depth
        return tuple(
            Atom(GridFunction(self.gen, _block_atom(a, self.gen)), a, base)
            for a in self.alphas
        )

    def closed_form_coefficients(self) -> np.ndarray:
        """Spectral profile: M_a * lambda_k on [M_a, 2 M_a), zero elsewhere."""
        coeffs = np.zeros(self.gen.size, dtype=np.complex128)
        for a, lam in zip(self.alphas, self.lambdas):
            Ma = self.gen.scale[a]
            coeffs[Ma : 2 * Ma] = Ma * lam
        return coeffs


def _weight(phi: Callable[[int], float], n: int) -> float:
    """phi(n) as a float, refused unless it is finite and > 0."""
    weight = float(phi(n))
    if not 0 < weight < math.inf:
        raise ValueError(f"phi({n})={weight} must be finite and > 0")
    return weight


def _block_atom(a: int, gen: GeneratorSequence) -> np.ndarray:
    """Cell values of M_a * r_a * D_{M_a}, where D_{M_a} = M_a on the cells
    i mod M_a = 0 and 0 elsewhere (Paley's lemma): nothing is synthesized."""
    Ma = gen.scale[a]
    cylinder = np.zeros(gen.size)
    cylinder[::Ma] = Ma
    return Ma * rademacher(a, gen).values * cylinder


def counterexample_martingale(
    phi: Callable[[int], float],
    alphas: Sequence[int],
    gen: GeneratorSequence,
) -> CounterexampleMartingale:
    """Assemble the block-atom martingale for the given weight and ranks.

    Every r_a is 1 at cell 0, which lies in every atom's cylinder, so the
    largest cell value is sum_k lambda_k * M_{alpha_k}^2 there; a sum that
    overflows is refused before any grid is built.
    """
    # Rank 0 has log M_0 = 0; below the depth, 2 M_a <= M_{a+1} <= M_N.
    alphas = integer_args("rank ", list(alphas), 1, gen.depth).tolist()
    if alphas != sorted(set(alphas)):
        raise ValueError("alphas must be strictly increasing")
    if not alphas:
        raise ValueError("need at least one rank")
    lambdas = [_weight(phi, 2 * gen.scale[a]) / math.log(gen.scale[a]) for a in alphas]
    peak = 0.0
    for k, (a, lam) in enumerate(zip(alphas, lambdas), start=1):
        peak += lam * gen.scale[a] ** 2
        if peak == math.inf:
            raise ValueError(
                f"rank {a}: lambda_{k}={lam} overflows the cell value at 0,"
                f" the sum of lambda_k * M_alpha_k^2"
            )
    total = np.zeros(gen.size, dtype=np.complex128)
    for a, lam in zip(alphas, lambdas):
        total += lam * _block_atom(a, gen)
    return CounterexampleMartingale(gen, tuple(alphas), tuple(lambdas), GridFunction(gen, total))


def select_alphas(
    phi: Callable[[int], float],
    count: int,
    gen: GeneratorSequence,
    threshold: float = 4.0,
) -> list[int]:
    """Greedy rank selection: alpha_k is the smallest admissible rank with
    log M_{alpha_k} / phi(2 M_{alpha_k}) >= threshold^k.

    Returns as many ranks as fit in the depth budget; a short list means
    the weight grows too fast for the requested count at this depth.
    """
    count = integer_arg("count=", count, 0, math.inf)
    if not 0 < threshold < math.inf:
        raise ValueError(f"threshold={threshold} must be finite and > 0")
    out: list[int] = []
    prev = 0
    for k in range(1, count + 1):
        target = threshold**k
        found = None
        for a in range(prev + 1, gen.depth):
            if 2 * gen.scale[a] > gen.size:
                break
            if math.log(gen.scale[a]) / _weight(phi, 2 * gen.scale[a]) >= target:
                found = a
                break
        if found is None:
            break
        out.append(found)
        prev = found
    return out


# --- strong convergence sums -------------------------------------------------


# Bytes of complex rows one block holds, with at least one row: a block of
# Fejer means on one coarse grid in sigma_norm_profile (512 rows of 128
# cells), and in the partial-sum row engine one chunk of bases with their
# shift blocks, or one chunk of rows.  The budget counts rows, not the
# synthesis temporaries around them (weights, weighted coefficients, a
# fresh array per run of the axis pass): a Walsh(12) Hardy profile with
# 128 KiB blocks peaks at 5.03 x 128 KiB past its orders, pinned by
# test_hardy_profile_peak_allocation_bounded_by_byte_cap.
_ROW_BYTES = 1 << 20


def sigma_norm_profile(
    f: GridFunction, nmax: int, hardy: bool = False
) -> np.ndarray:
    """||sigma_k f||_{1/2}^{1/2} for k = 1..nmax, optionally in H_{1/2}.

    Fejer means are synthesized in batches from the shared coefficient
    vector (in float64 on a Walsh grid when its imaginary part is exactly
    0); with ``hardy`` the L_{1/2} integral of each mean is replaced by
    that of its martingale maximal function.  sigma_k f lies below k - 1,
    so it is constant on the cylinders of its coarse grid (see
    ``fejer_mean_blocks``): its mean, and its maximal function, which every
    rank past the grid's leaves unchanged, are taken on that grid's cells.
    """
    nmax = integer_arg("nmax=", nmax, 1, f.gen.size + 1)
    coeffs = forward_transform(f).coeffs
    out = np.empty(nmax)
    for ks, grid, block in fejer_mean_blocks(coeffs, range(1, nmax + 1), f.gen, _ROW_BYTES):
        star = _maximal_abs(block, grid) if hardy else np.abs(block)
        out[ks - 1] = np.mean(np.sqrt(star), axis=-1)
    return out


def _partial_sum_rows(
    f: GridFunction, n: int, reduce: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """reduce(rows) over the partial sums S_k f for k = 1..n, in order of k.

    With L = M_s for the smallest rank s with M_s^2 >= M_N, write
    k = qL + j with 1 <= j <= L.  The shift identity
    D_{qL + j} = D_{qL} + psi_{qL} D_j gives

        S_k f = S_{qL} f + psi_{qL} * T_{q,j},
        T_{q,j} = sum_{i < j} f_hat(qL + i) psi_i.

    psi_{qL} depends only on the digits at and above s (it is character q
    of m[s:]) and T_{q,j} only on the L cells of m[:s], so on the
    (M_N / L, L) view of the grid each row is one broadcast multiply-add.
    Every base S_{qL} f and every block T_{q,j} is its own synthesis, so no
    round-off accumulates across rows.  ``reduce`` maps a (rows, M_N) block
    to one value per row; the block is reused, so it must not be kept.

    Past the support (1 + the last nonzero index) every block T_{q,j} is
    zero, so each row with q >= q0 = ceil(support / L) is S_{q0 L} f up to
    the sign of zeros, reduced once.  That needs exact zeros, as in the
    spectrum ``synthesize`` keeps; an analysed one rarely has them.
    """
    gen = f.gen
    s = next(r for r, M in enumerate(gen.scale) if M * M >= gen.size)
    L = gen.scale[s]
    H = gen.size // L
    coeffs = forward_transform(f).coeffs
    nonzero = np.flatnonzero(coeffs)
    support = int(nonzero[-1]) + 1 if nonzero.size else 0
    q0 = -(-support // L)
    Q = min(-(-n // L), q0)
    coeff_blocks = coeffs.reshape(H, L)  # row q: f_hat(qL), ..., f_hat(qL + L - 1)
    high, low = GeneratorSequence(gen.m[s:]), GeneratorSequence(gen.m[:s])
    chars = synthesize_rows(np.eye(H, dtype=np.complex128)[:Q], high)
    below = np.tri(L, dtype=bool)  # below[j - 1, i] is i < j
    share = _ROW_BYTES // coeffs.itemsize
    q_step = max(1, share // (gen.size + L * L))
    j_step = min(L, max(1, share // gen.size))
    out = np.empty(n)

    def reduce_chunk(qs: np.ndarray) -> None:
        # A call per chunk frees its bases and blocks before the next chunk.
        bases = partial_sum_rows(coeffs, qs * L, gen).reshape(-1, H, L)
        shifts = synthesize_rows(np.where(below, coeff_blocks[qs, None, :], 0), low)
        rows = np.empty((j_step, H, L), dtype=np.complex128)
        for base, q, shift in zip(bases, qs, shifts):
            top = min(L, n - q * L)
            for j0 in range(0, top, j_step):
                nj = min(j_step, top - j0)
                block = rows[:nj]
                np.multiply(chars[q][:, None], shift[j0 : j0 + nj, None, :], out=block)
                block += base
                out[q * L + j0 : q * L + j0 + nj] = reduce(block.reshape(nj, gen.size))

    for start in range(0, Q, q_step):
        reduce_chunk(np.arange(start, min(start + q_step, Q)))
    if q0 * L < n:
        out[q0 * L :] = reduce(partial_sum_rows(coeffs, [q0 * L], gen))
    return out


def partial_sum_norm_profile(f: GridFunction, nmax: int, p: float) -> np.ndarray:
    """||S_k f||_p for k = 1..nmax, row by row through the shift identity."""
    nmax = integer_arg("nmax=", nmax, 1, f.gen.size + 1)
    if not 0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p}")
    sums = _partial_sum_rows(f, nmax, lambda rows: np.mean(np.abs(rows) ** p, axis=-1))
    return sums ** (1.0 / p)


def strong_sums(
    f: GridFunction,
    n: int,
    p: float = 0.5,
    mode: str = "simon",
) -> float:
    """Weighted strong-convergence sums over k = 1..n.

    modes:
      fejer_plain    (1/n) * sum ||sigma_k f||_{1/2}^{1/2}
      fejer_weighted (1/(n*log n)) * sum ||sigma_k f||_{H_{1/2}}^{1/2}
      simon          sum ||S_k f||_p^p / k^{2-p}
      gat            (1/log n) * sum ||S_k f - f||_1 / k
    """
    n = integer_arg("n=", n, 1, f.gen.size + 1)
    if not 0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p}")
    if n < 2 and mode in ("fejer_weighted", "gat"):
        raise ValueError(f"n={n}: mode {mode!r} divides by log n, which needs n >= 2")
    k = np.arange(1, n + 1)
    if mode == "fejer_plain":
        return float(np.sum(sigma_norm_profile(f, n)) / n)
    if mode == "fejer_weighted":
        return float(np.sum(sigma_norm_profile(f, n, hardy=True)) / (n * math.log(n)))
    if mode == "simon":
        norms = partial_sum_norm_profile(f, n, p)
        return float(np.sum(norms**p / k ** (2.0 - p)))
    if mode == "gat":
        terms = _partial_sum_rows(
            f, n, lambda rows: np.mean(np.abs(rows - f.values), axis=-1)
        )
        return float(np.sum(terms / k) / math.log(n))
    raise ValueError(f"unknown mode {mode!r}")
