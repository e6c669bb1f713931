"""The Vilenkin character system, fast mixed-radix transform, and kernels.

The characters psi_n are products of generalized Rademacher functions
r_k(x) = exp(2*pi*i*x_k/m_k) raised to the digits of n.  Because both points
and frequencies are indexed by the same mixed-radix system, analysis and
synthesis factor into one dense size-m_k character transform per digit axis.
Consecutive digits are fused into runs of at most 32 cells (a larger radix
runs alone), and each run is applied as one Kronecker-product matrix
(Fino-Algazi), so a pass is one matmul per run and costs O(M_N * sum of the
run sizes) instead of O(M_N^2).

The quarter turns 1, i, -1 and -i are written exactly in every character
table, so a run of radix-2 digits is a real matrix and a radix-4 table is
exact in both parts.  Real rows stay float64 through real run matrices and
become complex at the first complex run: real coefficients (Dirichlet masks,
Fejer weights, a real spectrum) synthesize Walsh rows in real arithmetic,
and Walsh kernels have an imaginary part of exactly 0.

Paley's lemma, D_{M_n} = M_n * 1_{I_n}, makes the partial sum at a scale the
conditional expectation S_{M_n} f = E_n f, a cylinder mean: partial_sum takes
it at every scale without a transform, and the row forms stay syntheses.

Every other operator here is a multiplier on one spectrum: S_n keeps the
coefficients below n, sigma_n weights coefficient j by (n - 1 - j)/n, and the
kernels D_n and K_n are the same two multipliers on the all-ones spectrum.
One private core applies either multiplier and synthesizes the rows in one
axis pass, for the single and the row forms alike.  It also makes
S_0 f = K_1 = sigma_1 f = +0, where the synthesis of a zero row leaves -0.0
on radix-3 grids.  A GridFunction's values never change, so forward_transform
analyses a function at most once and keeps its SpectralVector on it: the
means, partial sums and profiles of one f share a single analysis pass.
A function made by synthesize or inverse_transform keeps, from birth, the
exact spectrum it was made from, with exact zeros past the support.

A row whose spectrum lies below M_r is constant on depth-r cylinders, so
the Fejer-mean rows of a norm profile and the Dirichlet rows of the Lebesgue
constants are synthesized and reduced on the coarsest prefix grid m[:r]
that holds each row, of at least 128 cells (or M_N): L_n for n <= 64 on
Walsh(20) reads 128 cells, not 2^20.  Kernels, single means and partial
sums are made on the full grid.  The CLI's cell budgets still count
rows * M_N, so for profiles and Lebesgue constants they are an upper bound
on the cells synthesized.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .funcspace import GridFunction, conditional_expectation, lp_quasinorm_rows
from .group import GeneratorSequence, digit_values, integer_arg, integer_args, to_digits

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
    "fejer_mean_blocks",
    "partial_sum_rows",
    "partial_sum",
    "fejer_mean",
    "lebesgue_constant",
    "lebesgue_constants",
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
        if not np.isfinite(c).all():
            j = int(np.flatnonzero(~np.isfinite(c))[0])
            raise ValueError(f"coefficients must be finite, got coeffs[{j}]={c[j]}")
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


# 1, i, -1, -i: the character value at a phase of q quarter turns.
_QUARTER_TURNS = np.array([complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1)])


@lru_cache(maxsize=None)
def _char_matrix(base: int, sign: int) -> np.ndarray:
    """Dense size-m character matrix exp(sign * 2*pi*i * j*x / m).

    Entries at a whole number of quarter turns, where 4 * (j*x mod m) is a
    multiple of m, are exactly 1, i, -1 or -i (np.exp gives exp(i*pi) as
    -1 + 1.2e-16i).  Every other entry is np.exp of the unreduced phase.
    """
    jx = np.outer(np.arange(base), np.arange(base))
    w = np.exp(sign * 2j * np.pi * jx / base)
    quarters = 4 * (jx % base)
    exact = quarters % base == 0
    w[exact] = _QUARTER_TURNS[sign * (quarters[exact] // base) % 4]
    w.setflags(write=False)
    return w


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
def _run_matrix(radices: tuple[int, ...], sign: int, complex_rows: bool) -> np.ndarray:
    """Kronecker product of the radices' character matrices, highest digit
    outermost, so row and column indices follow the mixed-radix order.

    A matrix whose entries are all real (a run of radix 2) is float64,
    except for complex rows: numpy would cast it to complex on every call,
    to the same bits as this complex copy.
    """
    w = np.ones((1, 1), dtype=np.complex128)
    for base in reversed(radices):
        w = np.kron(w, _char_matrix(base, sign))
    return w if complex_rows or w.imag.any() else w.real.copy()


def _axis_pass(values: np.ndarray, gen: GeneratorSequence, sign: int) -> np.ndarray:
    """Apply the size-m_k character transform along every digit axis.

    ``values`` may carry leading batch dimensions; the last axis must have
    length M_N.  Each run of digits is one matmul on a reshaped view: the run
    of G cells below ``post`` cells of lower digits is the second-to-last
    axis of (batch, M_N / (G * post), G, post).  The batch stays an axis of
    its own, so every row goes through the same BLAS calls however many rows
    there are, and a row's result is bit-identical batched or alone.

    The dtype alone picks the arithmetic: float64 rows stay float64 through
    real run matrices, and numpy promotes them at the first complex run.
    """
    lead = values.shape[:-1]
    batch = math.prod(lead)
    arr = values
    post = 1
    for radices in _digit_runs(gen.m):
        w = _run_matrix(radices, sign, np.iscomplexobj(arr))
        g = w.shape[0]
        pre = gen.size // (g * post)
        if post == 1:
            arr = arr.reshape(batch, pre, g) @ w.T
        else:
            arr = w @ arr.reshape(batch, pre, g, post)
        post *= g
    return arr.reshape(lead + (gen.size,))


def forward_transform(f: GridFunction) -> SpectralVector:
    """Fast analysis: coeffs[j] = (1/M_N) * sum_x f(x) * conj(psi_j(x)).

    The spectrum is computed on the first call, or kept from the synthesis
    that made f, and every later call on f returns that same SpectralVector.
    """
    spec = f._spectrum
    if spec is None:
        # Finite cells near the float limit may overflow the sums of the
        # pass; SpectralVector refuses the result by index, so numpy's
        # warnings would only say it first.
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = _axis_pass(f.values, f.gen, -1) / f.gen.size
        spec = SpectralVector(f.gen, coeffs)
        object.__setattr__(f, "_spectrum", spec)
    return spec


def inverse_transform(spec: SpectralVector) -> GridFunction:
    """Fast synthesis: f(x) = sum_j coeffs[j] * psi_j(x); f keeps ``spec``."""
    f = GridFunction(spec.gen, _axis_pass(spec.coeffs, spec.gen, +1))
    object.__setattr__(f, "_spectrum", spec)
    return f


def naive_forward_transform(f: GridFunction) -> SpectralVector:
    """O(M_N^2) reference analysis via explicit inner products."""
    gen = f.gen
    coeffs = np.empty(gen.size, dtype=np.complex128)
    for j in range(gen.size):
        coeffs[j] = np.mean(f.values * np.conj(vilenkin_fn(j, gen).values))
    return SpectralVector(gen, coeffs)


def synthesize(gen: GeneratorSequence, coeffs: np.ndarray) -> GridFunction:
    """Synthesis of a coefficient vector of at most M_N entries, zero-padded
    to M_N, checked finite first and kept as the function's exact spectrum.
    Real coefficients stay float64 where the runs allow."""
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 1 or len(coeffs) > gen.size:
        raise ValueError(
            f"expected at most M_N={gen.size} coefficients, got shape {coeffs.shape}"
        )
    full = np.zeros(gen.size, dtype=np.result_type(coeffs, np.float64))
    full[: len(coeffs)] = coeffs
    spec = SpectralVector(gen, full)
    f = GridFunction(gen, _axis_pass(full, gen, +1))
    object.__setattr__(f, "_spectrum", spec)
    return f


def _character_row(k: int, d: int, gen: GeneratorSequence) -> np.ndarray:
    """r_k^d on the grid, read from row d of the exact size-m_k table."""
    return _char_matrix(gen.m[k], +1)[d][digit_values(gen, k)]


def rademacher(k: int, gen: GeneratorSequence) -> GridFunction:
    """r_k(x) = exp(2*pi*i * x_k / m_k)."""
    k = integer_arg("rank ", k, 0, gen.depth)
    return GridFunction(gen, _character_row(k, 1, gen))


def vilenkin_fn(n: int, gen: GeneratorSequence) -> GridFunction:
    """The n-th character psi_n = prod_k r_k^{n_k}, unimodular on the group.

    Each factor is a row of the exact character table, so a character whose
    values are all real (every Walsh character) has imaginary part 0.
    """
    values = np.ones(gen.size, dtype=np.complex128)
    for k, d in enumerate(to_digits(n, gen)):
        if d:
            values *= _character_row(k, d, gen)
    return GridFunction(gen, values)


def synthesize_rows(coeff_rows: np.ndarray, gen: GeneratorSequence) -> np.ndarray:
    """Batched synthesis: each row along the last axis becomes sum_j c_j psi_j.

    ``coeff_rows`` may carry any leading batch dimensions; its last axis must
    have length M_N.  Every row is bit-identical to its synthesis alone.
    Real rows come back float64 when every run matrix is real.
    """
    rows = np.asarray(coeff_rows)
    rows = rows.astype(np.result_type(rows, np.float64), copy=False)
    if rows.ndim == 0 or rows.shape[-1] != gen.size:
        raise ValueError(
            f"expected rows of {gen.size} coefficients, got shape {rows.shape}"
        )
    return _axis_pass(rows, gen, +1)


def _fejer_numerators(ns: np.ndarray, orders: list[int], top: int) -> np.ndarray:
    """max(n - 1 - j, 0) for each order n in ``ns`` (``orders`` as a list)
    and each column j < top.

    Consecutive orders n0 + i read entry top - 1 + i - j of one clipped
    float ramp, through a view that steps +1 down a row and -1 along it, so
    no (rows, top) array is made; other orders take an integer array.
    """
    if orders and orders == list(range(orders[0], orders[0] + len(orders))):
        ramp = np.arange(orders[0] - top, orders[-1], dtype=np.float64)
        np.maximum(ramp, 0.0, out=ramp)
        step = ramp.itemsize
        return np.ndarray((len(orders), top), np.float64, ramp, (top - 1) * step, (step, -step))
    return np.maximum(ns[:, None] - 1 - np.arange(top), 0)


def _multiplier_rows(
    coeffs: np.ndarray, ns: np.ndarray, gen: GeneratorSequence, *, fejer: bool
) -> np.ndarray:
    """The spectral-multiplier core: for each order n in ``ns`` the row
    sum_j w_n(j) * coeffs[j] * psi_j, synthesized in one axis pass.

    w_n is the S_n truncation, or with ``fejer`` the Fejer weights
    max(n - 1 - j, 0)/n.  Truncation copies the coefficients below n into
    zeros: multiplying by 0 would leave -0.0 where a part is negative.  A
    spectrum whose imaginary part is exactly 0 takes the Fejer weights as a
    real one.  S_0 f = 0 and K_1 = sigma_1 f = 0 are set to +0 here: the
    synthesis of a zero row leaves -0.0 on radix-3 grids.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (gen.size,):
        raise ValueError(f"expected {gen.size} coefficients, got shape {coeffs.shape}")
    orders = ns.tolist()
    if fejer:
        if np.iscomplexobj(coeffs) and not coeffs.imag.any():
            coeffs = coeffs.real
        top = min(gen.size, max(orders, default=1))
        weights = np.zeros((ns.size, gen.size))
        col = ns[:, None]
        np.divide(_fejer_numerators(ns, orders, top), col, out=weights[:, :top])
        # The whole row is multiplied, so a zero weight keeps the sign of
        # its coefficient (-0.0 under a negative one).  Rebinding frees the
        # bare weights before the pass: held through it, they made a
        # Walsh(9) Fejer profile 12% slower (one BLAS thread).
        weights = weights * coeffs
    else:
        weights = np.zeros((ns.size, gen.size), dtype=np.result_type(coeffs, np.float64))
        for row, n in zip(weights, orders):
            row[:n] = coeffs[:n]
    rows = _axis_pass(weights, gen, +1)
    zero = 1 if fejer else 0  # the order whose row is 0: sigma_1 f or S_0 f
    if zero in orders:  # a list test, cheaper than a mask on every block
        rows[ns == zero] = 0.0
    return rows


# Bytes of synthesized rows one block of kernel rows holds, counted as
# complex rows (4096 cells: 21 rows of a 192-cell grid); on a grid of more
# cells a block is a single row.  On the six-digit verify_mixed grids (192
# or 240 cells) one pass over a few rows is a few microseconds of
# arithmetic.  Against 16 KiB, 64 KiB blocks cut a job's axis passes from
# 111 to 35 and its job_s_p50 by 11% (4 alternating pairs of 15 s runs),
# for 0.1 MiB more peak RSS (2-core Xeon, one BLAS thread).  At 128 KiB
# run_suite on constant:3 depth 7 peaks at 1096 KiB, over the 750 KiB
# bound of test_suite_peak_allocation_on_a_chunked_grid.
_ROW_BLOCK_BYTES = 1 << 16


def _kernel_blocks(
    ns: np.ndarray, gen: GeneratorSequence, *, fejer: bool
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The kernels of the orders ``ns``: the core on the all-ones spectrum."""
    ones = np.ones(gen.size)
    step = max(1, _ROW_BLOCK_BYTES // (16 * gen.size))
    for start in range(0, ns.size, step):
        block = ns[start : start + step]
        yield block, _multiplier_rows(ones, block, gen, fejer=fejer)


# Fewest cells of a coarse grid (or M_N, if fewer).  numpy sums a row
# pairwise in blocks of 128 cells, so on a grid of 2^N cells a coarse row of
# at least 128 cells sums to the bits of its tiling of the full grid.  With
# no floor, Walsh(9) counterexample profiles moved by up to 3.6e-9 relative.
_COARSE_CELLS = 128


@lru_cache(maxsize=None)
def _prefix_grid(m: tuple[int, ...]) -> GeneratorSequence:
    """GeneratorSequence(m), built once: every profile asks for the same few."""
    return GeneratorSequence(m)


def _coarse_runs(spans: np.ndarray, gen: GeneratorSequence) -> list[tuple[int, int, int]]:
    """(r, start, stop) for each run of consecutive rows with one coarse rank
    r, the least r with M_r >= max(span, min(_COARSE_CELLS, M_N)) for a
    row whose spectrum lies below its span."""
    floor = min(_COARSE_CELLS, gen.size)
    if bisect.bisect_left(gen.scale, floor) == gen.depth:
        # M_{N-1} < the floor, so every row is on the full grid: skipping the
        # split saves about 10 us a call, 3% of the Lebesgue constants of a
        # 192-cell grid.
        return [(gen.depth, 0, spans.size)]
    ranks = np.searchsorted(gen.scale, np.maximum(spans, floor))
    cuts = [0, *(np.flatnonzero(ranks[1:] != ranks[:-1]) + 1).tolist(), spans.size]
    return list(zip(ranks[cuts[:-1]].tolist(), cuts, cuts[1:]))


def _coarse_blocks(
    coeffs: np.ndarray,
    ns: np.ndarray,
    gen: GeneratorSequence,
    *,
    fejer: bool,
    block_bytes: int,
) -> Iterator[tuple[np.ndarray, GeneratorSequence, np.ndarray]]:
    """The core's rows of the orders ``ns``, each on the coarsest prefix grid
    that holds it, as (orders, grid, rows) blocks in the order of ``ns``.

    A row whose spectrum lies below s (s = n for D_n, n - 1 for sigma_n)
    is constant on depth-r cylinders once M_r >= s
    (Paley's lemma), so its values on the full grid tile its values on
    GeneratorSequence(m[:r]).  Each row takes the least r with
    M_r >= max(s, min(_COARSE_CELLS, M_N)): its grid depends on its order
    alone, so a block's neighbours never move its bits.  A block holds rows
    of one grid, at most ``block_bytes`` of them counted as complex (or a
    single row).  The orders are checked by the caller, against the full
    grid: sigma_{M_r + 1} lies on the M_r-cell grid.
    """
    if not ns.size:
        return
    if fejer and np.iscomplexobj(coeffs) and not coeffs.imag.any():
        coeffs = coeffs.real  # decided on the whole spectrum, not on a prefix
    for r, start, stop in _coarse_runs(ns - 1 if fejer else ns, gen):
        grid = gen if r == gen.depth else _prefix_grid(gen.m[:r])
        step = max(1, block_bytes // (16 * grid.size))
        for i in range(start, stop, step):
            block = ns[i : min(i + step, stop)]
            yield block, grid, _multiplier_rows(coeffs[: grid.size], block, grid, fejer=fejer)


def fejer_mean_blocks(
    coeffs: np.ndarray, ks: Sequence[int], gen: GeneratorSequence, block_bytes: int
) -> Iterator[tuple[np.ndarray, GeneratorSequence, np.ndarray]]:
    """sigma_k f for every k in ``ks`` (1 <= k <= M_N), from f's coefficients,
    as (orders, grid, rows) blocks.  Each row lies on the coarsest prefix
    grid m[:r] that holds it, the least r with M_r >= max(k - 1, min(128,
    M_N)): its M_r cells are the first M_r cells of the full grid, which
    the row tiles.  A block holds at most ``block_bytes`` of rows (or one
    row), all on one grid."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (gen.size,):
        raise ValueError(f"expected {gen.size} coefficients, got shape {coeffs.shape}")
    ks = integer_args("n=", ks, 1, gen.size + 1)
    return _coarse_blocks(coeffs, ks, gen, fejer=True, block_bytes=block_bytes)


def dirichlet(n: int, gen: GeneratorSequence) -> GridFunction:
    """D_n = sum_{k < n} psi_k, materialized on the depth-N grid."""
    ns = integer_args("n=", [n], 1, gen.size + 1)
    return GridFunction(gen, _multiplier_rows(np.ones(gen.size), ns, gen, fejer=False)[0])


def dirichlet_rows(
    ns: Sequence[int], gen: GeneratorSequence
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """D_n for every n in ``ns``, in order, as (orders, rows) blocks.

    A block holds at most _ROW_BLOCK_BYTES of rows (or a single row), and
    row i of a block is bit-identical to ``dirichlet(orders[i], gen).values``.
    """
    return _kernel_blocks(integer_args("n=", ns, 1, gen.size + 1), gen, fejer=False)


def fejer_kernel(n: int, gen: GeneratorSequence) -> GridFunction:
    """K_n = (1/n) * sum_{k=0}^{n-1} D_k with D_0 = 0, so K_1 = 0.

    Swapping the two sums gives the multiplier form
    n * K_n = sum_{j <= n-2} (n - 1 - j) * psi_j, used here for speed.
    """
    ns = integer_args("n=", [n], 1, gen.size + 1)
    return GridFunction(gen, _multiplier_rows(np.ones(gen.size), ns, gen, fejer=True)[0])


def fejer_kernel_rows(
    ns: Sequence[int], gen: GeneratorSequence
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """K_n for every n in ``ns``, in blocks like ``dirichlet_rows``."""
    return _kernel_blocks(integer_args("n=", ns, 1, gen.size + 1), gen, fejer=True)


def fejer_mean_rows(
    coeffs: np.ndarray, ks: np.ndarray, gen: GeneratorSequence
) -> np.ndarray:
    """sigma_k f for every k in ``ks``, one row each, from f's coefficients.
    A spectrum with imaginary part exactly 0 synthesizes as a real one."""
    return _multiplier_rows(coeffs, integer_args("n=", ks, 1, gen.size + 1), gen, fejer=True)


def partial_sum_rows(
    coeffs: np.ndarray, ns: Sequence[int], gen: GeneratorSequence
) -> np.ndarray:
    """S_n f for every n in ``ns`` (0 <= n <= M_N), one row each, from f's
    coefficients."""
    return _multiplier_rows(coeffs, integer_args("n=", ns, 0, gen.size + 1), gen, fejer=False)


def partial_sum(f: GridFunction, n: int) -> GridFunction:
    """S_n f = sum_{k < n} f_hat(k) psi_k, with S_0 f = 0.  At a scale n = M_r
    it is the cylinder mean E_r f by Paley's lemma, taken with no transform."""
    ns = integer_args("n=", [n], 0, f.gen.size + 1)
    if ns[0] in f.gen.scale:
        return conditional_expectation(f, f.gen.scale.index(ns[0]))
    coeffs = forward_transform(f).coeffs
    return GridFunction(f.gen, _multiplier_rows(coeffs, ns, f.gen, fejer=False)[0])


def fejer_mean(f: GridFunction, n: int) -> GridFunction:
    """sigma_n f = (1/n) * sum_{k < n} S_k f, via the coefficient multiplier.

    Coefficient j < n - 1 appears in S_k f for j < k <= n - 1, i.e. with
    total weight (n - 1 - j)/n; coefficients at or above n - 1 drop out.
    """
    ns = integer_args("n=", [n], 1, f.gen.size + 1)
    coeffs = forward_transform(f).coeffs
    return GridFunction(f.gen, _multiplier_rows(coeffs, ns, f.gen, fejer=True)[0])


def lebesgue_constants(ns: Sequence[int], gen: GeneratorSequence) -> np.ndarray:
    """L_n = ||D_n||_1 for every n in ``ns``, one L_1 reduction per block of
    Dirichlet rows, each row on the coarsest grid that holds it: the least
    r with M_r >= max(n, min(128, M_N)), as in ``fejer_mean_blocks``.

    L_n is bit-identical to lp_quasinorm(D_n, 1) where that grid is the full
    grid (n > M_{N-1}, or M_{N-1} < 128 as on 192 or 240 cells), and on
    grids of 2^N cells (checked on Walsh(9), (12) and (20) and on 4^5);
    elsewhere (3^7, cycle:2,3,4) it moves by at most a few ulps.
    """
    ns = integer_args("n=", ns, 1, gen.size + 1)
    blocks = _coarse_blocks(
        np.ones(gen.size), ns, gen, fejer=False, block_bytes=_ROW_BLOCK_BYTES
    )
    norms = [lp_quasinorm_rows(rows, 1.0) for _, _, rows in blocks]
    return np.concatenate(norms) if norms else np.empty(0)


def lebesgue_constant(n: int, gen: GeneratorSequence) -> float:
    """L_n = ||D_n||_1."""
    return float(lebesgue_constants([n], gen)[0])
