"""Martingales on the cylinder filtration and Hardy-space machinery.

The depth-n conditional expectation averages a step function over depth-n
cylinders.  On this filtration a martingale is its top level f: level n is
always E_n f = conditional_expectation(f, n), so a martingale is stored as
one GridFunction and its levels are never kept.  The maximal function
sup_n |E_n f| defines the H_p quasi-norm.  This module also provides
p-atoms, atomic assembly, the weighted strong-convergence sums of Fejer
means and partial sums, and the explicit atomic martingale whose Fejer
means make the unweighted strong sum diverge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .funcspace import GridFunction, lp_quasinorm
from .group import GeneratorSequence, cylinder_indices, variation
from .identities import CheckReport
from .transform import (
    dirichlet,
    fejer_kernel,
    fejer_mean,
    fejer_mean_rows,
    forward_transform,
    partial_sum,
    partial_sum_rows,
    rademacher,
    synthesize_rows,
    vilenkin_fn,
)

__all__ = [
    "Atom",
    "AtomicDecomposition",
    "conditional_expectation",
    "maximal_function",
    "function_hardy_quasinorm",
    "is_p_atom",
    "assemble_martingale",
    "CounterexampleMartingale",
    "counterexample_martingale",
    "select_alphas",
    "strong_sums",
    "sigma_norm_profile",
    "partial_sum_norm_profile",
    "sigma_split_check",
]


def _cell_average(values: np.ndarray, gen: GeneratorSequence, n: int) -> np.ndarray:
    """Average the trailing axis over depth-n cylinders and broadcast back.

    Cylinder mates share the index residue mod M_n, so the average is a
    reshape-mean over the high digits.
    """
    Mn = gen.scale[n]
    lead = values.shape[:-1]
    folded = values.reshape(lead + (gen.size // Mn, Mn))
    return np.broadcast_to(
        folded.mean(axis=-2, keepdims=True), folded.shape
    ).reshape(lead + (gen.size,))


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


def conditional_expectation(f: GridFunction, n: int) -> GridFunction:
    """Project f onto functions constant on depth-n cylinders."""
    if not 0 <= n <= f.gen.depth:
        raise ValueError(f"rank {n} out of range [0, {f.gen.depth}]")
    return GridFunction(f.gen, _cell_average(f.values, f.gen, n))


def maximal_function(f: GridFunction) -> GridFunction:
    """f* = max_n |E_n f| pointwise over ranks 0..N."""
    return GridFunction(f.gen, _maximal_abs(f.values, f.gen))


def function_hardy_quasinorm(f: GridFunction, p: float) -> float:
    """||f||_{H_p} = ||f*||_p for the martingale of conditional expectations of f."""
    return lp_quasinorm(maximal_function(f), p)


@dataclass(frozen=True)
class Atom:
    """A p-atom: mean zero on its cylinder, bounded by mu(I)^{-1/p}."""

    values: GridFunction
    rank: int
    base: tuple[int, ...]
    exponent: float


def is_p_atom(
    a: GridFunction,
    rank: int,
    base: Sequence[int],
    p: float,
    tol: float = 1e-9,
) -> tuple[bool, dict[str, bool]]:
    """Check the three atom conditions; returns (ok, per-condition results)."""
    if not 0 < p <= 1:
        raise ValueError(f"atoms need 0 < p <= 1, got {p}")
    gen = a.gen
    idx = cylinder_indices(base, rank, gen)
    measure = 1.0 / gen.scale[rank]
    mean = abs(np.sum(a.values[idx])) / gen.size
    off = np.delete(np.abs(a.values), idx)
    checks = {
        "mean_zero": bool(mean <= tol),
        "sup_bound": bool(np.max(np.abs(a.values)) <= measure ** (-1.0 / p) + tol),
        "support": bool(off.size == 0 or np.max(off) <= tol),
    }
    return all(checks.values()), checks


@dataclass(frozen=True)
class AtomicDecomposition:
    """Coefficients mu_k and p-atoms a_k assembling a martingale."""

    coefficients: tuple[float, ...]
    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        if len(self.coefficients) != len(self.atoms):
            raise ValueError("one coefficient per atom")

    def coefficient_quasinorm(self, p: float) -> float:
        if not 0 < p < math.inf:
            raise ValueError(f"p must be positive and finite, got {p}")
        return float(sum(abs(c) ** p for c in self.coefficients) ** (1.0 / p))


def assemble_martingale(
    dec: AtomicDecomposition, gen: GeneratorSequence
) -> GridFunction:
    """The top level sum_k mu_k a_k; its level n is sum_k mu_k S_{M_n} a_k."""
    for atom in dec.atoms:
        if atom.values.gen != gen:
            raise ValueError("atoms must live on the target grid")
    total = np.zeros(gen.size, dtype=np.complex128)
    for c, atom in zip(dec.coefficients, dec.atoms):
        total += c * atom.values.values
    return GridFunction(gen, total)


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
            Atom(GridFunction(self.gen, _block_atom(a, self.gen)), a, base, 0.5)
            for a in self.alphas
        )

    def closed_form_coefficients(self) -> np.ndarray:
        """Spectral profile: M_a * lambda_k on [M_a, 2 M_a), zero elsewhere."""
        coeffs = np.zeros(self.gen.size, dtype=np.complex128)
        for a, lam in zip(self.alphas, self.lambdas):
            Ma = self.gen.scale[a]
            coeffs[Ma : 2 * Ma] = Ma * lam
        return coeffs

    def active_block(self, n: int) -> int:
        """Index k with M_{alpha_k} <= n < 2 M_{alpha_k}, or -1."""
        for k, a in enumerate(self.alphas):
            if self.gen.scale[a] <= n < 2 * self.gen.scale[a]:
                return k
        return -1


def _weight(phi: Callable[[int], float], n: int) -> float:
    """phi(n) as a float, refused unless it is finite and > 0."""
    weight = float(phi(n))
    if not 0 < weight < math.inf:
        raise ValueError(f"phi({n})={weight} must be finite and > 0")
    return weight


def _block_atom(a: int, gen: GeneratorSequence) -> np.ndarray:
    """Cell values of M_a * r_a * D_{M_a}."""
    Ma = gen.scale[a]
    return Ma * rademacher(a, gen).values * dirichlet(Ma, gen).values


def counterexample_martingale(
    phi: Callable[[int], float],
    alphas: Sequence[int],
    gen: GeneratorSequence,
) -> CounterexampleMartingale:
    """Assemble the block-atom martingale for the given weight and ranks."""
    alphas = tuple(int(a) for a in alphas)
    if list(alphas) != sorted(set(alphas)):
        raise ValueError("alphas must be strictly increasing")
    if not alphas:
        raise ValueError("need at least one rank")
    if alphas[0] < 1:
        raise ValueError(f"rank {alphas[0]} must be >= 1 (rank 0 has log M_0 = 0)")
    if alphas[-1] >= gen.depth:  # below the depth, 2 M_a <= M_{a+1} <= M_N
        raise ValueError(
            f"rank {alphas[-1]} needs 2*M_{alphas[-1]} <= M_N, so a depth"
            f" above {alphas[-1]}; got depth {gen.depth}"
        )
    lambdas = []
    total = np.zeros(gen.size, dtype=np.complex128)
    for a in alphas:
        Ma = gen.scale[a]
        lam = _weight(phi, 2 * Ma) / math.log(Ma)
        lambdas.append(lam)
        total += lam * _block_atom(a, gen)
    return CounterexampleMartingale(gen, alphas, tuple(lambdas), GridFunction(gen, total))


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
# Fejer means in sigma_norm_profile, and in the partial-sum row engine one
# chunk of bases with their shift blocks, or one chunk of rows.  The budget
# counts rows, not the synthesis temporaries around them (weights, weighted
# coefficients, a fresh array per run of the axis pass): a Walsh(15) Hardy
# profile peaks at 5.00 x 1 MiB, pinned by
# test_hardy_profile_peak_allocation_bounded_by_byte_cap.
_ROW_BYTES = 1 << 20


def _order(name: str, n: float, size: int) -> int:
    """n as an int in [1, size]; an integral float is accepted."""
    if not 1 <= n <= size:
        raise ValueError(f"{name}={n} out of range [1, {size}]")
    if n != int(n):
        raise ValueError(f"{name}={n} is not an integer")
    return int(n)


def sigma_norm_profile(
    f: GridFunction, nmax: int, hardy: bool = False
) -> np.ndarray:
    """||sigma_k f||_{1/2}^{1/2} for k = 1..nmax, optionally in H_{1/2}.

    Fejer means are synthesized in batches from the shared coefficient
    vector (in float64 on a Walsh grid when its imaginary part is exactly
    0); with ``hardy`` the L_{1/2} integral of each mean is replaced by
    that of its martingale maximal function.
    """
    gen = f.gen
    nmax = _order("nmax", nmax, gen.size)
    coeffs = forward_transform(f).coeffs
    if not coeffs.imag.any():  # tested once here, not once a block
        coeffs = coeffs.real
    out = np.empty(nmax)
    step = max(1, _ROW_BYTES // (16 * gen.size))
    for start in range(1, nmax + 1, step):
        ks = np.arange(start, min(start + step, nmax + 1))
        block = fejer_mean_rows(coeffs, ks, gen)
        star = _maximal_abs(block, gen) if hardy else np.abs(block)
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
    """
    gen = f.gen
    s = next(r for r, M in enumerate(gen.scale) if M * M >= gen.size)
    L = gen.scale[s]
    H = gen.size // L
    Q = -(-n // L)
    coeffs = forward_transform(f).coeffs
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

    for q0 in range(0, Q, q_step):
        reduce_chunk(np.arange(q0, min(q0 + q_step, Q)))
    return out


def partial_sum_norm_profile(f: GridFunction, nmax: int, p: float) -> np.ndarray:
    """||S_k f||_p for k = 1..nmax, row by row through the shift identity."""
    nmax = _order("nmax", nmax, f.gen.size)
    if not 0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p}")
    sums = _partial_sum_rows(f, nmax, lambda rows: np.mean(np.abs(rows) ** p, axis=-1))
    return sums ** (1.0 / p)


def strong_sums(
    f: GridFunction,
    n: int,
    p: float = 0.5,
    mode: str = "simon",
    phi: Optional[Callable[[int], float]] = None,
) -> float:
    """Weighted strong-convergence sums over k = 1..n.

    modes:
      fejer_plain    (1/(n*phi_n)) * sum ||sigma_k f||_{1/2}^{1/2}, phi default 1
      fejer_weighted (1/(n*log n)) * sum ||sigma_k f||_{H_{1/2}}^{1/2}
      simon          sum ||S_k f||_p^p / k^{2-p}
      gat            (1/log n) * sum ||S_k f - f||_1 / k
    """
    n = _order("n", n, f.gen.size)
    if not 0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p}")
    if n < 2 and mode in ("fejer_weighted", "gat"):
        raise ValueError(f"n={n}: mode {mode!r} divides by log n, which needs n >= 2")
    k = np.arange(1, n + 1)
    if mode == "fejer_plain":
        weight = _weight(phi, n) if phi is not None else 1.0
        return float(np.sum(sigma_norm_profile(f, n)) / (n * weight))
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


def sigma_split_check(
    ce: CounterexampleMartingale, n: int, tol: float = 1e-9
) -> CheckReport:
    """Split sigma_n f into the low-block mean, the frozen partial sum, and
    the modulated Fejer kernel of the active block, and compare with the
    direct Fejer mean.

    For M_a <= n < 2 M_a the partial sums inside the block satisfy
    S_j f = S_{M_a} f + lambda_k M_a psi_{M_a} D_{j - M_a}, so

        sigma_n f = (M_a/n) sigma_{M_a} f
                  + ((n - M_a)/n) S_{M_a} f
                  + lambda_k M_a ((n - M_a)/n) psi_{M_a} K_{n - M_a}.

    Also reports the L_{1/2} mass of the kernel part against
    lambda_k^{1/2} * v(n - M_a).
    """
    k = ce.active_block(n)
    if k < 0:
        raise ValueError(f"n={n} lies in no active frequency block")
    gen = ce.gen
    a = ce.alphas[k]
    lam = ce.lambdas[k]
    Ma = gen.scale[a]
    f = ce.function
    direct = fejer_mean(f, n)
    part_low = (Ma / n) * fejer_mean(f, Ma)
    part_frozen = ((n - Ma) / n) * partial_sum(f, Ma)
    if n > Ma:
        kern = fejer_kernel(n - Ma, gen)
        part_kernel = (lam * Ma * (n - Ma) / n) * (
            GridFunction(gen, vilenkin_fn(Ma, gen).values) * kern
        )
    else:
        part_kernel = GridFunction.constant(gen, 0.0)
    recon = part_low + part_frozen + part_kernel
    dev = float(np.max(np.abs(direct.values - recon.values)))
    mass = float(np.mean(np.sqrt(np.abs(part_kernel.values))))
    var = variation(n - Ma, gen) if n > Ma else 0
    ratio = mass / (math.sqrt(lam) * var) if var else float("nan")
    return CheckReport.deviation(
        "sigma_split",
        {"n": n, "k": k, "alpha": a},
        dev,
        tol,
        note=f"kernel_mass={mass:.6g};variation={var};ratio={ratio:.6g}",
    )
