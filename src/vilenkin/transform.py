"""The Vilenkin character system, fast mixed-radix transform, and kernels.

The characters psi_n are products of generalized Rademacher functions
r_k(x) = exp(2*pi*i*x_k/m_k) raised to the digits of n.  Because both points
and frequencies are indexed by the same mixed-radix system, analysis and
synthesis factor into one dense size-m_k character transform per digit axis,
costing O(M_N * sum_k m_k) instead of O(M_N^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .funcspace import GridFunction
from .group import GeneratorSequence, digit_values, to_digits

__all__ = [
    "SpectralVector",
    "rademacher",
    "vilenkin_fn",
    "forward_transform",
    "inverse_transform",
    "naive_forward_transform",
    "synthesize",
    "dirichlet",
    "fejer_kernel",
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


@lru_cache(maxsize=None)
def _char_matrix(base: int, sign: int) -> np.ndarray:
    """Dense size-m character matrix exp(sign * 2*pi*i * j*x / m)."""
    jx = np.outer(np.arange(base), np.arange(base))
    return np.exp(sign * 2j * np.pi * jx / base)


def _axis_pass(values: np.ndarray, gen: GeneratorSequence, sign: int) -> np.ndarray:
    """Apply the size-m_k character transform along every digit axis.

    ``values`` may carry leading batch dimensions; the last axis must have
    length M_N.  Summation order inside each butterfly is fixed by the dense
    matmul, so results are bit-identical regardless of how callers batch.
    """
    lead = values.shape[:-1]
    # C-order reshape puts digit 0 on the last axis (stride 1).
    arr = values.reshape(lead + tuple(reversed(gen.m)))
    nd = arr.ndim
    for k in range(gen.depth):
        axis = nd - 1 - k
        w = _char_matrix(gen.m[k], sign)
        arr = np.moveaxis(np.tensordot(arr, w, axes=([axis], [1])), -1, axis)
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


def dirichlet(n: int, gen: GeneratorSequence) -> GridFunction:
    """D_n = sum_{k < n} psi_k, materialized on the depth-N grid."""
    if not 1 <= n <= gen.size:
        raise ValueError(f"n={n} out of range [1, {gen.size}]")
    return synthesize(gen, np.ones(n))


def fejer_kernel(n: int, gen: GeneratorSequence) -> GridFunction:
    """K_n = (1/n) * sum_{k=0}^{n-1} D_k with D_0 = 0.

    Swapping the two sums gives the multiplier form
    n * K_n = sum_{j <= n-2} (n - 1 - j) * psi_j, used here for speed.
    """
    if not 1 <= n <= gen.size:
        raise ValueError(f"n={n} out of range [1, {gen.size}]")
    if n == 1:
        return GridFunction.constant(gen, 0.0)
    weights = (n - 1 - np.arange(n - 1)) / n
    return synthesize(gen, weights)


def partial_sum(f: GridFunction, n: int) -> GridFunction:
    """S_n f = sum_{k < n} f_hat(k) psi_k, with S_0 f = 0."""
    if not 0 <= n <= f.gen.size:
        raise ValueError(f"n={n} out of range [0, {f.gen.size}]")
    coeffs = forward_transform(f).coeffs.copy()
    coeffs[n:] = 0.0
    return inverse_transform(SpectralVector(f.gen, coeffs))


def fejer_mean(f: GridFunction, n: int) -> GridFunction:
    """sigma_n f = (1/n) * sum_{k < n} S_k f, via the coefficient multiplier.

    Coefficient j < n - 1 appears in S_k f for j < k <= n - 1, i.e. with
    total weight (n - 1 - j)/n; coefficients at or above n - 1 drop out.
    """
    if not 1 <= n <= f.gen.size:
        raise ValueError(f"n={n} out of range [1, {f.gen.size}]")
    coeffs = forward_transform(f).coeffs.copy()
    weights = np.zeros(f.gen.size)
    if n >= 2:
        weights[: n - 1] = (n - 1 - np.arange(n - 1)) / n
    return inverse_transform(SpectralVector(f.gen, coeffs * weights))


def lebesgue_constant(n: int, gen: GeneratorSequence) -> float:
    """L_n = ||D_n||_1."""
    return dirichlet(n, gen).lp_quasinorm(1.0)
