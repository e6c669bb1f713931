"""Martingales on the cylinder filtration and Hardy-space machinery.

The depth-n conditional expectation averages a step function over depth-n
cylinders; the resulting sequence of averages is a finite martingale whose
maximal function defines the H_p quasi-norm.  This module also provides
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
    _axis_pass,
    dirichlet,
    fejer_kernel,
    fejer_mean,
    forward_transform,
    partial_sum,
    rademacher,
    vilenkin_fn,
)

__all__ = [
    "FiniteMartingale",
    "Atom",
    "AtomicDecomposition",
    "conditional_expectation",
    "maximal_function",
    "hardy_quasinorm",
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


def conditional_expectation(f: GridFunction, n: int) -> GridFunction:
    """Project f onto functions constant on depth-n cylinders."""
    if not 0 <= n <= f.gen.depth:
        raise ValueError(f"rank {n} out of range [0, {f.gen.depth}]")
    return GridFunction(f.gen, _cell_average(f.values, f.gen, n))


@dataclass(frozen=True)
class FiniteMartingale:
    """Levels f_0, ..., f_N adapted to the cylinder filtration.

    Each level is stored on the full depth-N grid but must be constant on
    depth-n cylinders.
    """

    gen: GeneratorSequence
    levels: tuple[GridFunction, ...]

    def __post_init__(self) -> None:
        if len(self.levels) != self.gen.depth + 1:
            raise ValueError("need one level per rank 0..N")
        for f in self.levels:
            if f.gen != self.gen:
                raise ValueError("levels must share the generator sequence")

    @classmethod
    def from_function(cls, f: GridFunction) -> "FiniteMartingale":
        levels = tuple(
            conditional_expectation(f, n) for n in range(f.gen.depth + 1)
        )
        return cls(f.gen, levels)

    def validate(self, tol: float = 1e-9) -> float:
        """Max violation of adaptedness and the martingale property."""
        worst = 0.0
        for n, f in enumerate(self.levels):
            worst = max(worst, float(np.max(np.abs(
                f.values - _cell_average(f.values, self.gen, n)))))
        for n in range(self.gen.depth):
            proj = _cell_average(self.levels[n + 1].values, self.gen, n)
            worst = max(worst, float(np.max(np.abs(proj - self.levels[n].values))))
        if worst > tol:
            raise ValueError(f"martingale property violated by {worst:.3g}")
        return worst


def maximal_function(f: FiniteMartingale) -> GridFunction:
    """f* = max_n |f_n| pointwise."""
    stacked = np.abs(np.stack([lev.values for lev in f.levels]))
    return GridFunction(f.gen, stacked.max(axis=0))


def hardy_quasinorm(f: FiniteMartingale, p: float) -> float:
    """||f||_{H_p} = ||f*||_p."""
    return lp_quasinorm(maximal_function(f), p)


def function_hardy_quasinorm(f: GridFunction, p: float) -> float:
    """H_p quasi-norm of the martingale of conditional expectations of f."""
    return hardy_quasinorm(FiniteMartingale.from_function(f), p)


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
        return float(sum(abs(c) ** p for c in self.coefficients) ** (1.0 / p))


def assemble_martingale(
    dec: AtomicDecomposition, gen: GeneratorSequence
) -> FiniteMartingale:
    """Level n = sum_k mu_k S_{M_n} a_k (= conditional expectation at rank n)."""
    for atom in dec.atoms:
        if atom.values.gen != gen:
            raise ValueError("atoms must live on the target grid")
    total = np.zeros(gen.size, dtype=np.complex128)
    for c, atom in zip(dec.coefficients, dec.atoms):
        total += c * atom.values.values
    return FiniteMartingale.from_function(GridFunction(gen, total))


# --- the divergence construction ---------------------------------------------


@dataclass(frozen=True)
class CounterexampleMartingale:
    """Atomic martingale built from frequency blocks [M_a, 2 M_a).

    Atom k is M_a * r_a * D_{M_a} at rank a = alphas[k], scaled by
    lambda_k = phi(2 M_a) / log M_a; the top level is the plain function
    carrying the full spectrum.
    """

    gen: GeneratorSequence
    alphas: tuple[int, ...]
    lambdas: tuple[float, ...]
    atoms: tuple[Atom, ...]
    martingale: FiniteMartingale

    @property
    def function(self) -> GridFunction:
        return self.martingale.levels[-1]

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
        raise ValueError("ranks must be >= 1 (rank 0 has log M_0 = 0)")
    if 2 * gen.scale[alphas[-1]] > gen.size:
        raise ValueError(
            f"depth {gen.depth} too small: need 2*M_{alphas[-1]} <= M_N"
        )
    lambdas = []
    atoms = []
    total = np.zeros(gen.size, dtype=np.complex128)
    for a in alphas:
        Ma = gen.scale[a]
        lam = float(phi(2 * Ma)) / math.log(Ma)
        lambdas.append(lam)
        vals = Ma * rademacher(a, gen).values * dirichlet(Ma, gen).values
        atoms.append(Atom(GridFunction(gen, vals), a, (0,) * gen.depth, 0.5))
        total += lam * vals
    mart = FiniteMartingale.from_function(GridFunction(gen, total))
    return CounterexampleMartingale(gen, alphas, tuple(lambdas), tuple(atoms), mart)


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
            if math.log(gen.scale[a]) / float(phi(2 * gen.scale[a])) >= target:
                found = a
                break
        if found is None:
            break
        out.append(found)
        prev = found
    return out


# --- strong convergence sums -------------------------------------------------


def sigma_norm_profile(
    f: GridFunction,
    nmax: int,
    hardy: bool = False,
    chunk: int = 128,
) -> np.ndarray:
    """||sigma_k f||_{1/2}^{1/2} for k = 1..nmax, optionally in H_{1/2}.

    Fejer means are synthesized in batches from the shared coefficient
    vector; with ``hardy`` the L_{1/2} integral of each mean is replaced by
    that of its martingale maximal function.
    """
    gen = f.gen
    if not 1 <= nmax <= gen.size:
        raise ValueError(f"nmax={nmax} out of range [1, {gen.size}]")
    coeffs = forward_transform(f).coeffs
    out = np.empty(nmax)
    j = np.arange(gen.size)
    for start in range(1, nmax + 1, chunk):
        ks = np.arange(start, min(start + chunk, nmax + 1))
        weights = np.clip((ks[:, None] - 1 - j[None, :]) / ks[:, None], 0.0, None)
        block = _axis_pass(weights * coeffs[None, :], gen, +1)
        if hardy:
            star = np.abs(block)
            for n in range(gen.depth):  # rank-N average is |block| itself
                star = np.maximum(star, np.abs(_cell_average(block, gen, n)))
            out[ks - 1] = np.mean(np.sqrt(star), axis=-1)
        else:
            out[ks - 1] = np.mean(np.sqrt(np.abs(block)), axis=-1)
    return out


# Bytes the partial-sum row engine may allocate at once.  An eighth goes to one
# chunk of bases and shift blocks, an eighth to one chunk of rows, the rest to
# the temporaries of their syntheses and reductions and to the coefficients
# and characters kept for the whole call (at most M_N cells each).  A chunk
# holds at least one base with its L blocks and one row, so a grid where those
# alone pass an eighth of it goes over.
_ROW_ENGINE_BYTES = 1 << 23


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
    chars = _axis_pass(np.eye(H, dtype=np.complex128)[:Q], high, +1)
    below = np.tri(L, dtype=bool)  # below[j - 1, i] is i < j
    share = _ROW_ENGINE_BYTES // (8 * coeffs.itemsize)
    q_step = max(1, share // (gen.size + L * L))
    j_step = min(L, max(1, share // gen.size))
    out = np.empty(n)

    def reduce_chunk(qs: np.ndarray) -> None:
        # A call per chunk frees its bases and blocks before the next chunk.
        kept = np.arange(gen.size) < qs[:, None] * L
        bases = _axis_pass(np.where(kept, coeffs, 0), gen, +1).reshape(-1, H, L)
        shifts = _axis_pass(np.where(below, coeff_blocks[qs, None, :], 0), low, +1)
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
    gen = f.gen
    if not 1 <= nmax <= gen.size:
        raise ValueError(f"nmax={nmax} out of range [1, {gen.size}]")
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
    if not 1 <= n <= f.gen.size:
        raise ValueError(f"n={n} out of range [1, {f.gen.size}]")
    if not 0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p}")
    if n < 2 and mode in ("fejer_weighted", "gat"):
        raise ValueError(f"n={n}: mode {mode!r} divides by log n, which needs n >= 2")
    k = np.arange(1, n + 1)
    if mode == "fejer_plain":
        weight = float(phi(n)) if phi is not None else 1.0
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
