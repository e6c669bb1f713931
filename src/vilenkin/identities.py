"""Executable checks of the kernel identities and inequalities.

Each checker materializes both sides of one identity (or the relevant side
of one inequality) on the depth-N grid and reports either the maximum
pointwise deviation or the minimum margin.  Functions of frequency below
M_{n+1} are constant on depth-(n+1) cylinders, so evaluating one
representative point per cell makes "for all x" statements exact at finite
depth.

The checks read their kernels from a table of rows: D_n, K_n, the
Rademacher rows r_k and the characters psi_n.  ``run_suite`` collects the
orders its scheduled checks read and synthesizes each kernel once, in
batched blocks, for as many consecutive checks as fit in a byte budget; a
check called on its own builds the table of its own orders.  Batched rows
are bit-identical to single ones, so the reports do not depend on the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Collection, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .group import GeneratorSequence, to_digits
from .transform import (
    dirichlet,  # not called here; bench/test_bench.py checks the tracer patches it here
    dirichlet_rows,
    fejer_kernel_rows,
    rademacher,
    vilenkin_fn,
)

__all__ = [
    "CheckReport",
    "check_dirichlet_at_scale",
    "check_dirichlet_scaled",
    "check_dirichlet_shift",
    "check_kernel_block_decomposition",
    "check_kernel_lower_bound",
    "check_kernel_vanishing",
    "check_kernel_digit_expansion",
    "check_block_pattern_lower_bound",
    "check_digit_tail_bound",
    "run_suite",
]

DEFAULT_TOL = 1e-9


def _integer(label: str, value: object) -> None:
    """Refuse a rank, multiplier or block bound that is not an integer by
    value: indexing the scales with it would raise a bare TypeError."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{label}{value!r} is not an integer")


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one identity or inequality check.

    ``kind`` is "deviation" (pass iff value <= tolerance), "margin" (pass
    iff value >= 0) or "vacuous" (no claim applies; passes with a note).
    """

    name: str
    params: Mapping[str, object]
    value: float
    kind: str
    tolerance: float
    passed: bool
    note: str = ""

    @classmethod
    def deviation(
        cls, name: str, params: Mapping[str, object], value: float,
        tolerance: float = DEFAULT_TOL, note: str = "",
    ) -> "CheckReport":
        return cls(name, dict(params), float(value), "deviation",
                   tolerance, bool(value <= tolerance), note)

    @classmethod
    def margin(
        cls, name: str, params: Mapping[str, object], value: float,
        tolerance: float = 0.0, note: str = "",
    ) -> "CheckReport":
        return cls(name, dict(params), float(value), "margin",
                   tolerance, bool(value >= -tolerance), note)

    @classmethod
    def not_applicable(
        cls, name: str, params: Mapping[str, object], note: str
    ) -> "CheckReport":
        return cls(name, dict(params), 0.0, "vacuous", 0.0, True, note)


# Keys of the table: ("D", n) for D_n, ("K", n) for K_n, ("r", k, d) for
# the Rademacher power r_k^d and ("psi", n) for the character psi_n.
_Key = tuple

# Bytes of rows one table holds in run_suite (at least one check's rows),
# counted as complex rows.  A six-digit grid of 192 or 240 cells fits whole
# (at most 341 KiB); a deep grid runs in several tables.  On constant:3
# depth 7, 1 MiB tables raised the peak by 522 KiB for no measurable gain.
_TABLE_BYTES = 1 << 19


class _KernelTable(dict):
    """The rows of the given keys on one grid.

    The kernels are synthesized once, in sorted batched blocks, and keep the
    dtype they were synthesized in (float64 on Walsh grids); every row is
    bit-identical to its synthesis alone.
    """

    def __init__(self, gen: GeneratorSequence, keys: Collection[_Key]) -> None:
        super().__init__()
        for kind, blocks in (("D", dirichlet_rows), ("K", fejer_kernel_rows)):
            ns = sorted(key[1] for key in keys if key[0] == kind)
            for block, rows in blocks(ns, gen):
                self.update(zip([(kind, n) for n in block.tolist()], rows))
        for key in keys:
            if key[0] == "r":
                self[key] = rademacher(key[1], gen).values ** key[2]
            elif key[0] == "psi":
                self[key] = vilenkin_fn(key[1], gen).values


def _at_scale_keys(n: int, gen: GeneratorSequence) -> set[_Key]:
    return {("D", gen.scale[n])}


def check_dirichlet_at_scale(
    n: int, gen: GeneratorSequence, tol: float = DEFAULT_TOL,
    *, table: Optional[_KernelTable] = None,
) -> CheckReport:
    """D_{M_n} equals M_n on I_n and vanishes elsewhere."""
    _integer("rank ", n)
    if not 0 <= n <= gen.depth:
        raise ValueError(f"rank {n} out of range [0, {gen.depth}]")
    if table is None:
        table = _KernelTable(gen, _at_scale_keys(n, gen))
    Mn = gen.scale[n]
    closed = np.zeros(gen.size, dtype=np.complex128)
    closed[Mn * np.arange(gen.size // Mn)] = Mn  # the cylinder I_n(0)
    dev = float(np.max(np.abs(table["D", Mn] - closed)))
    return CheckReport.deviation("dirichlet_at_scale", {"n": n}, dev, tol)


def _scaled_keys(n: int, s: int, gen: GeneratorSequence) -> set[_Key]:
    Mn = gen.scale[n]
    return {("D", Mn), ("D", s * Mn)} | {("r", n, k) for k in range(s)}


def check_dirichlet_scaled(
    n: int, s: int, gen: GeneratorSequence, tol: float = DEFAULT_TOL,
    *, table: Optional[_KernelTable] = None,
) -> CheckReport:
    """D_{s M_n} = D_{M_n} * sum_{k < s} r_n^k for 1 <= s <= m_n - 1."""
    _integer("rank ", n)
    _integer("s=", s)
    if not 0 <= n < gen.depth:
        raise ValueError(f"rank {n} out of range [0, {gen.depth})")
    if not 1 <= s <= gen.m[n] - 1:
        raise ValueError(f"s={s} out of range [1, {gen.m[n] - 1}]")
    if table is None:
        table = _KernelTable(gen, _scaled_keys(n, s, gen))
    Mn = gen.scale[n]
    geom = sum(table["r", n, k] for k in range(s))
    dev = float(np.max(np.abs(table["D", s * Mn] - table["D", Mn] * geom)))
    return CheckReport.deviation("dirichlet_scaled", {"n": n, "s": s}, dev, tol)


def _shift_keys(alpha: int, gen: GeneratorSequence) -> set[_Key]:
    # The ranges D_1..D_{2 M_alpha} reach M_N rows, so they stream instead.
    Ma = gen.scale[alpha]
    return {("D", Ma), ("psi", Ma)}


def check_dirichlet_shift(
    alpha: int, gen: GeneratorSequence, tol: float = DEFAULT_TOL,
    *, table: Optional[_KernelTable] = None,
) -> CheckReport:
    """D_{j + M_alpha} = D_{M_alpha} + psi_{M_alpha} * D_j for all j <= M_alpha."""
    _integer("rank ", alpha)
    # Below the depth, 2 M_alpha <= M_{alpha+1} <= M_N: the shifts fit.
    if not 0 <= alpha < gen.depth:
        raise ValueError(f"rank {alpha} out of range [0, {gen.depth})")
    Ma = gen.scale[alpha]
    if table is None:
        table = _KernelTable(gen, _shift_keys(alpha, gen))
    base = table["D", Ma]
    psi = table["psi", Ma]
    dev = 0.0
    shifted = dirichlet_rows(range(Ma + 1, 2 * Ma + 1), gen)
    for (_, lhs), (_, low) in zip(shifted, dirichlet_rows(range(1, Ma + 1), gen)):
        dev = max(dev, float(np.max(np.abs(lhs - base - psi * low))))
    return CheckReport.deviation("dirichlet_shift", {"alpha": alpha}, dev, tol)


def _block_keys(n: int, s: int, gen: GeneratorSequence) -> set[_Key]:
    Mn = gen.scale[n]
    return {("D", Mn), ("K", Mn), ("K", s * Mn)} | {("r", n, l) for l in range(s)}


def check_kernel_block_decomposition(
    n: int, s: int, gen: GeneratorSequence, tol: float = DEFAULT_TOL,
    *, table: Optional[_KernelTable] = None,
) -> CheckReport:
    """Decomposition of s * M_n * K_{s M_n} into Dirichlet and Fejer parts at scale M_n."""
    _integer("rank ", n)
    _integer("s=", s)
    if n + 1 > gen.depth:
        raise ValueError("depth too small: kernels need rank n + 1")
    if not 1 <= s <= gen.m[n] - 1:
        raise ValueError(f"s={s} out of range [1, {gen.m[n] - 1}]")
    if table is None:
        table = _KernelTable(gen, _block_keys(n, s, gen))
    Mn = gen.scale[n]
    d_part = sum(sum(table["r", n, t] for t in range(l)) for l in range(s))
    k_part = sum(table["r", n, l] for l in range(s))
    rhs = (
        np.asarray(d_part) * Mn * table["D", Mn]
        + k_part * Mn * table["K", Mn]
    )
    lhs = s * Mn * table["K", s * Mn]
    dev = float(np.max(np.abs(lhs - rhs)))
    return CheckReport.deviation("kernel_block_decomposition", {"n": n, "s": s}, dev, tol)


def _spike_cell_index(l: int, gen: GeneratorSequence) -> int:
    """Index of the cylinder I_{l+1}(e_{l-1} + e_l), a single depth-(l+1) cell."""
    return gen.scale[l - 1] + gen.scale[l]


def _scaled_fejer_keys(n: int, s: int, gen: GeneratorSequence) -> set[_Key]:
    """The one kernel K_{s M_n} of the lower-bound and vanishing checks."""
    return {("K", s * gen.scale[n])}


def check_kernel_lower_bound(
    n: int, s: int, gen: GeneratorSequence,
    *, table: Optional[_KernelTable] = None,
) -> CheckReport:
    """|s M_n K_{s M_n}| >= M_n^2 / (2 pi) on the cylinder I_{n+1}(e_{n-1} + e_n)."""
    _integer("rank ", n)
    _integer("s=", s)
    if n < 1:
        raise ValueError("lower bound needs n >= 1")
    if n + 1 > gen.depth:
        raise ValueError("depth too small: the cylinder needs rank n + 1")
    if not 1 <= s <= gen.m[n] - 1:
        raise ValueError(f"s={s} out of range [1, {gen.m[n] - 1}]")
    if table is None:
        table = _KernelTable(gen, _scaled_fejer_keys(n, s, gen))
    Mn = gen.scale[n]
    value = abs(s * Mn * table["K", s * Mn][_spike_cell_index(n, gen)])
    margin = float(value - Mn**2 / (2 * np.pi))
    return CheckReport.margin("kernel_lower_bound", {"n": n, "s": s}, margin)


def check_kernel_vanishing(
    n: int, s: int, t: int, gen: GeneratorSequence, tol: float = DEFAULT_TOL,
    *, table: Optional[_KernelTable] = None,
) -> CheckReport:
    """K_{s M_n}(x) = 0 when x has leading digit at position t < n and a
    further nonzero digit strictly between t and n."""
    _integer("rank ", n)
    _integer("s=", s)
    _integer("t=", t)
    if not 0 <= t < n:
        raise ValueError("need t < n")
    if n + 1 > gen.depth:
        raise ValueError("depth too small")
    if not 1 <= s <= gen.m[n] - 1:
        raise ValueError(f"s={s} out of range [1, {gen.m[n] - 1}]")
    if table is None:
        table = _KernelTable(gen, _scaled_fejer_keys(n, s, gen))
    kern = table["K", s * gen.scale[n]]
    # K_{s M_n} is constant on depth-(n+1) cells; scan their representatives
    # i, whose digit j is (i // M_j) % m_j.
    i = np.arange(gen.scale[n + 1])
    M = gen.scale
    cells = np.flatnonzero(
        (i % M[t] == 0)  # in I_t: no nonzero digit below t
        & ((i // M[t]) % gen.m[t] != 0)  # ... but not in I_{t+1}
        & ((i // M[t + 1]) % (M[n] // M[t + 1]) != 0)  # a digit in (t, n)
    )
    count = int(cells.size)
    # Scalar abs per cell: np.abs over the array rounds differently.
    dev = max((abs(v) for v in kern[cells]), default=0.0)
    note = f"cells={count}"
    if count == 0:
        return CheckReport.not_applicable(
            "kernel_vanishing", {"n": n, "s": s, "t": t}, "no qualifying cell"
        )
    return CheckReport.deviation(
        "kernel_vanishing", {"n": n, "s": s, "t": t}, dev, tol, note
    )


@lru_cache(maxsize=None)
def _digit_terms(n: int, gen: GeneratorSequence) -> tuple[tuple[int, int], ...]:
    """Nonzero digits of n as (position, digit), in decreasing position order.
    Cached: run_suite reads them for the table keys, the expansion check and
    the tail bound of each n."""
    return tuple((j, d) for j, d in reversed(list(enumerate(to_digits(n, gen)))) if d)


def _digit_expansion_keys(n: int, gen: GeneratorSequence) -> set[_Key]:
    """K of n and of every piece; D and r^digit of every piece but the last."""
    terms = _digit_terms(n, gen)
    pieces = [dig * gen.scale[pos] for pos, dig in terms]
    return ({("K", n)} | {("K", p) for p in pieces}
            | {("D", p) for p in pieces[:-1]} | {("r", *term) for term in terms[:-1]})


def check_kernel_digit_expansion(
    n: int, gen: GeneratorSequence, tol: float = DEFAULT_TOL,
    *, table: Optional[_KernelTable] = None,
) -> CheckReport:
    """n K_n rebuilt from the kernels of the single-digit pieces of n.

    Writing n = sum_k s_k M_{p_k} with positions p_1 > p_2 > ... and tails
    n^{(k)} = n - sum_{i<=k} s_i M_{p_i}, the identity is

        n K_n = sum_k prefix_k s_k M_{p_k} K_{s_k M_{p_k}}
              + sum_{k<r} prefix_k n^{(k)} D_{s_k M_{p_k}},

    where prefix_k multiplies the Rademacher powers of the digits above p_k.
    """
    if not 1 <= n < gen.size:
        raise ValueError(f"n={n} out of range [1, {gen.size})")
    if table is None:
        table = _KernelTable(gen, _digit_expansion_keys(n, gen))
    terms = _digit_terms(n, gen)
    r = len(terms)
    prefix = np.ones(gen.size, dtype=np.complex128)
    rhs = np.zeros(gen.size, dtype=np.complex128)
    tail = n
    for k, (pos, dig) in enumerate(terms):
        piece = dig * gen.scale[pos]
        tail -= piece
        rhs += prefix * piece * table["K", piece]
        if k < r - 1:
            rhs += prefix * tail * table["D", piece]
            prefix = prefix * table["r", pos, dig]
    dev = float(np.max(np.abs(n * table["K", n] - rhs)))
    return CheckReport.deviation("kernel_digit_expansion", {"n": n}, dev, tol)


def compose_block_number(
    blocks: Sequence[tuple[int, int]], gen: GeneratorSequence
) -> int:
    """Build n from maximal nonzero-digit blocks (l_i, r_i), digit 1 at
    every in-block position: n = sum_i (M_{l_i} + ... + M_{r_i}).

    Blocks must be increasing with gaps of at least one zero digit
    (l_{i+1} >= r_i + 2).
    """
    prev_end = -2
    n = 0
    for l, rr in blocks:
        _integer("block bound ", l)
        _integer("block bound ", rr)
        if l > rr or l < prev_end + 2:
            raise ValueError(f"inadmissible block pattern {list(blocks)}")
        if rr >= gen.depth:
            raise ValueError("block exceeds depth")
        n += sum(gen.scale[l : rr + 1])
        prev_end = rr
    return n


def _block_pattern_keys(
    blocks: Sequence[tuple[int, int]], gen: GeneratorSequence
) -> set[_Key]:
    """K_n, or nothing when no block start carries a claim."""
    if all(l < 4 for l, _ in blocks):
        return set()
    return {("K", compose_block_number(blocks, gen))}


def check_block_pattern_lower_bound(
    blocks: Sequence[tuple[int, int]],
    gen: GeneratorSequence,
    *, table: Optional[_KernelTable] = None,
) -> CheckReport:
    """n |K_n| >= M_l^2 / 144 on I_{l+1}(e_{l-1} + e_l) for each block start l >= 4.

    Block starts below 4 carry no claim; if none qualifies the check is
    vacuous and reported as not applicable.
    """
    n = compose_block_number(blocks, gen)
    params = {"blocks": tuple(tuple(b) for b in blocks), "n": n}
    starts = [l for l, _ in blocks if l >= 4]
    if not starts:
        return CheckReport.not_applicable(
            "block_pattern_lower_bound", params, "no block starts at rank >= 4"
        )
    if max(s for s in starts) + 1 > gen.depth:
        raise ValueError("depth too small for the spike cylinder")
    if table is None:
        table = _KernelTable(gen, _block_pattern_keys(blocks, gen))
    kern = np.abs(n * table["K", n])
    margin = min(
        float(kern[_spike_cell_index(l, gen)] - gen.scale[l] ** 2 / 144.0)
        for l in starts
    )
    return CheckReport.margin("block_pattern_lower_bound", params, margin)


def check_digit_tail_bound(n: int, gen: GeneratorSequence) -> CheckReport:
    """Every tail of the digit expansion satisfies n^{(k)} <= M_{p_k}, exactly."""
    if not 1 <= n < gen.size:
        raise ValueError(f"n={n} out of range [1, {gen.size})")
    terms = _digit_terms(n, gen)
    tail = n
    margin = None
    for pos, dig in terms:
        tail -= dig * gen.scale[pos]
        slack = gen.scale[pos] - tail
        margin = slack if margin is None else min(margin, slack)
    return CheckReport.margin("digit_tail_bound", {"n": n}, float(margin))


# Random block patterns drawn for check_block_pattern_lower_bound per sweep.
_BLOCK_SAMPLES = 20

# One scheduled check: the keys it reads and a call that runs it on a table.
_Step = tuple[set[_Key], Callable[[_KernelTable], CheckReport]]


def _step(check: Callable[..., CheckReport], keys: set[_Key], *args) -> _Step:
    return keys, lambda table: check(*args, table=table)


def _schedule(
    gen: GeneratorSequence, tol: float, patterns: Sequence[tuple[tuple[int, int], ...]]
) -> Iterator[_Step]:
    """Every check of the sweep, in its fixed order, with the keys it reads."""
    N = gen.depth
    for n in range(N + 1):
        yield _step(check_dirichlet_at_scale, _at_scale_keys(n, gen), n, gen, tol)
    for n in range(N):
        for s in range(1, gen.m[n]):
            yield _step(check_dirichlet_scaled, _scaled_keys(n, s, gen), n, s, gen, tol)
    for alpha in range(N):
        if 2 * gen.scale[alpha] <= gen.size:
            yield _step(check_dirichlet_shift, _shift_keys(alpha, gen), alpha, gen, tol)
    for n in range(min(N - 1, 5) + 1):
        for s in range(1, gen.m[n]):
            yield _step(check_kernel_block_decomposition, _block_keys(n, s, gen),
                        n, s, gen, tol)
    for n in range(1, min(N - 1, 6) + 1):
        for s in range(1, gen.m[n]):
            yield _step(check_kernel_lower_bound, _scaled_fejer_keys(n, s, gen), n, s, gen)
    for n in range(2, min(N - 1, 5) + 1):
        for s in range(1, gen.m[n]):
            for t in range(n - 1):
                yield _step(check_kernel_vanishing, _scaled_fejer_keys(n, s, gen),
                            n, s, t, gen, tol)
    if N >= 4:
        for n in range(1, gen.scale[4]):
            yield _step(check_kernel_digit_expansion, _digit_expansion_keys(n, gen),
                        n, gen, tol)
            yield set(), lambda table, n=n: check_digit_tail_bound(n, gen)
    for p in patterns:
        yield _step(check_block_pattern_lower_bound, _block_pattern_keys(p, gen), p, gen)


def _chunks(steps: Iterable[_Step], size: int) -> Iterator[tuple[set[_Key], list[_Step]]]:
    """Runs of consecutive steps whose rows fit in _TABLE_BYTES, with their
    keys; a run holds at least one step."""
    row_bytes = 16 * size
    keys: set[_Key] = set()
    chunk: list[_Step] = []
    for step in steps:
        new = step[0] - keys
        if chunk and (len(keys) + len(new)) * row_bytes > _TABLE_BYTES:
            yield keys, chunk
            keys, chunk, new = set(), [], step[0]
        keys |= new
        chunk.append(step)
    if chunk:
        yield keys, chunk


def run_suite(
    gen: GeneratorSequence, rng: np.random.Generator, tol: float = DEFAULT_TOL
) -> list[CheckReport]:
    """Run the full verification sweep for one generator sequence.

    The checks run one after another in a fixed order, so the same generator
    and seed give the same list of reports.  The block patterns are drawn
    first, then the checks run in chunks: one kernel table for as many
    consecutive checks as fit in _TABLE_BYTES, dropped before the next chunk.
    """
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol={tol} must be finite and >= 0")
    patterns = _random_block_patterns(gen, rng, _BLOCK_SAMPLES)
    reports = []
    for keys, chunk in _chunks(_schedule(gen, tol, patterns), gen.size):
        table = _KernelTable(gen, keys)
        reports += [call(table) for _, call in chunk]
        del table  # not alive while the next one is built
    return reports


def _random_block_patterns(
    gen: GeneratorSequence, rng: np.random.Generator, count: int
) -> list[tuple[tuple[int, int], ...]]:
    """Admissible random block patterns whose first block starts at rank >= 4."""
    top = gen.depth - 2  # leave room for the spike cylinder at l + 1
    patterns = []
    if top < 4:
        return patterns
    for _ in range(count):
        blocks = []
        pos = int(rng.integers(4, top + 1))
        while pos <= top:
            end = int(rng.integers(pos, min(pos + 2, top) + 1))
            blocks.append((pos, end))
            pos = end + 2 + int(rng.integers(0, 2))
        patterns.append(tuple(blocks))
    return patterns
