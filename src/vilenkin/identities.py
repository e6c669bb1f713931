"""Executable checks of the kernel identities and inequalities.

Each checker materializes both sides of one identity (or the relevant side
of one inequality) on the depth-N grid and reports either the maximum
pointwise deviation or the minimum margin.  Functions of frequency below
M_{n+1} are constant on depth-(n+1) cylinders, so evaluating one
representative point per cell makes "for all x" statements exact at finite
depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .funcspace import GridFunction
from .group import GeneratorSequence, to_digits
from .transform import (
    dirichlet,
    dirichlet_rows,
    fejer_kernel,
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


def _max_dev(a: GridFunction, b: GridFunction) -> float:
    return float(np.max(np.abs(a.values - b.values)))


def check_dirichlet_at_scale(
    n: int, gen: GeneratorSequence, tol: float = DEFAULT_TOL
) -> CheckReport:
    """D_{M_n} equals M_n on I_n and vanishes elsewhere."""
    if not 0 <= n <= gen.depth:
        raise ValueError(f"rank {n} out of range [0, {gen.depth}]")
    Mn = gen.scale[n]
    closed = np.zeros(gen.size, dtype=np.complex128)
    closed[Mn * np.arange(gen.size // Mn)] = Mn  # the cylinder I_n(0)
    dev = _max_dev(dirichlet(Mn, gen), GridFunction(gen, closed))
    return CheckReport.deviation("dirichlet_at_scale", {"n": n}, dev, tol)


def check_dirichlet_scaled(
    n: int, s: int, gen: GeneratorSequence, tol: float = DEFAULT_TOL
) -> CheckReport:
    """D_{s M_n} = D_{M_n} * sum_{k < s} r_n^k for 1 <= s <= m_n - 1."""
    if not 0 <= n < gen.depth:
        raise ValueError(f"rank {n} out of range [0, {gen.depth})")
    if not 1 <= s <= gen.m[n] - 1:
        raise ValueError(f"s={s} out of range [1, {gen.m[n] - 1}]")
    Mn = gen.scale[n]
    r = rademacher(n, gen).values
    geom = sum(r**k for k in range(s))
    rhs = GridFunction(gen, dirichlet(Mn, gen).values * geom)
    dev = _max_dev(dirichlet(s * Mn, gen), rhs)
    return CheckReport.deviation("dirichlet_scaled", {"n": n, "s": s}, dev, tol)


def check_dirichlet_shift(
    alpha: int, gen: GeneratorSequence, tol: float = DEFAULT_TOL
) -> CheckReport:
    """D_{j + M_alpha} = D_{M_alpha} + psi_{M_alpha} * D_j for all j <= M_alpha."""
    Ma = gen.scale[alpha]
    if 2 * Ma > gen.size:
        raise ValueError("depth too small for the shifted kernels")
    base = dirichlet(Ma, gen).values
    psi = vilenkin_fn(Ma, gen).values
    dev = 0.0
    shifted = dirichlet_rows(range(Ma + 1, 2 * Ma + 1), gen)
    for (_, lhs), (_, low) in zip(shifted, dirichlet_rows(range(1, Ma + 1), gen)):
        dev = max(dev, float(np.max(np.abs(lhs - base - psi * low))))
    return CheckReport.deviation("dirichlet_shift", {"alpha": alpha}, dev, tol)


def check_kernel_block_decomposition(
    n: int, s: int, gen: GeneratorSequence, tol: float = DEFAULT_TOL
) -> CheckReport:
    """Decomposition of s * M_n * K_{s M_n} into Dirichlet and Fejer parts at scale M_n."""
    if n + 1 > gen.depth:
        raise ValueError("depth too small: kernels need rank n + 1")
    if not 1 <= s <= gen.m[n] - 1:
        raise ValueError(f"s={s} out of range [1, {gen.m[n] - 1}]")
    Mn = gen.scale[n]
    r = rademacher(n, gen).values
    d_part = sum(sum(r**t for t in range(l)) for l in range(s))
    k_part = sum(r**l for l in range(s))
    rhs = (
        np.asarray(d_part) * Mn * dirichlet(Mn, gen).values
        + k_part * Mn * fejer_kernel(Mn, gen).values
    )
    lhs = s * Mn * fejer_kernel(s * Mn, gen).values
    dev = float(np.max(np.abs(lhs - rhs)))
    return CheckReport.deviation("kernel_block_decomposition", {"n": n, "s": s}, dev, tol)


def _spike_cell_index(l: int, gen: GeneratorSequence) -> int:
    """Index of the cylinder I_{l+1}(e_{l-1} + e_l), a single depth-(l+1) cell."""
    return gen.scale[l - 1] + gen.scale[l]


def check_kernel_lower_bound(
    n: int, s: int, gen: GeneratorSequence
) -> CheckReport:
    """|s M_n K_{s M_n}| >= M_n^2 / (2 pi) on the cylinder I_{n+1}(e_{n-1} + e_n)."""
    if n < 1:
        raise ValueError("lower bound needs n >= 1")
    if n + 1 > gen.depth:
        raise ValueError("depth too small: the cylinder needs rank n + 1")
    if not 1 <= s <= gen.m[n] - 1:
        raise ValueError(f"s={s} out of range [1, {gen.m[n] - 1}]")
    Mn = gen.scale[n]
    value = abs(s * Mn * fejer_kernel(s * Mn, gen).values[_spike_cell_index(n, gen)])
    margin = float(value - Mn**2 / (2 * np.pi))
    return CheckReport.margin("kernel_lower_bound", {"n": n, "s": s}, margin)


def check_kernel_vanishing(
    n: int, s: int, t: int, gen: GeneratorSequence, tol: float = DEFAULT_TOL
) -> CheckReport:
    """K_{s M_n}(x) = 0 when x has leading digit at position t < n and a
    further nonzero digit strictly between t and n."""
    if not 0 <= t < n:
        raise ValueError("need t < n")
    if n + 1 > gen.depth:
        raise ValueError("depth too small")
    if not 1 <= s <= gen.m[n] - 1:
        raise ValueError(f"s={s} out of range [1, {gen.m[n] - 1}]")
    kern = fejer_kernel(s * gen.scale[n], gen).values
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


def _digit_terms(n: int, gen: GeneratorSequence) -> list[tuple[int, int]]:
    """Nonzero digits of n as (position, digit), in decreasing position order."""
    exp = to_digits(n, gen)
    return [(j, d) for j, d in reversed(list(enumerate(exp.digits))) if d]


def check_kernel_digit_expansion(
    n: int, gen: GeneratorSequence, tol: float = DEFAULT_TOL
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
    terms = _digit_terms(n, gen)
    r = len(terms)
    pieces = [dig * gen.scale[pos] for pos, dig in terms]
    # K rows of the pieces and of n, D rows of the pieces, each set batched.
    kernels = np.concatenate([b for _, b in fejer_kernel_rows(pieces + [n], gen)])
    dirichlets = np.concatenate([b for _, b in dirichlet_rows(pieces, gen)])
    prefix = np.ones(gen.size, dtype=np.complex128)
    rhs = np.zeros(gen.size, dtype=np.complex128)
    tail = n
    for k, ((pos, dig), piece) in enumerate(zip(terms, pieces)):
        tail -= piece
        rhs += prefix * piece * kernels[k]
        if k < r - 1:
            rhs += prefix * tail * dirichlets[k]
        prefix = prefix * rademacher(pos, gen).values ** dig
    dev = float(np.max(np.abs(n * kernels[r] - rhs)))
    return CheckReport.deviation("kernel_digit_expansion", {"n": n}, dev, tol)


def compose_block_number(
    blocks: Sequence[tuple[int, int]],
    gen: GeneratorSequence,
    digits: Optional[Mapping[int, int]] = None,
) -> int:
    """Build n from maximal nonzero-digit blocks (l_i, r_i).

    Blocks must be increasing with gaps of at least one zero digit
    (l_{i+1} >= r_i + 2); ``digits`` optionally assigns each in-block
    position a digit in [1, m_pos), defaulting to 1.
    """
    prev_end = -2
    n = 0
    for l, rr in blocks:
        if l > rr or l < prev_end + 2:
            raise ValueError(f"inadmissible block pattern {list(blocks)}")
        if rr >= gen.depth:
            raise ValueError("block exceeds depth")
        for pos in range(l, rr + 1):
            d = digits.get(pos, 1) if digits else 1
            if not 1 <= d < gen.m[pos]:
                raise ValueError(f"digit {d} inadmissible at position {pos}")
            n += d * gen.scale[pos]
        prev_end = rr
    return n


def check_block_pattern_lower_bound(
    blocks: Sequence[tuple[int, int]],
    gen: GeneratorSequence,
    digits: Optional[Mapping[int, int]] = None,
) -> CheckReport:
    """n |K_n| >= M_l^2 / 144 on I_{l+1}(e_{l-1} + e_l) for each block start l >= 4.

    Block starts below 4 carry no claim; if none qualifies the check is
    vacuous and reported as not applicable.
    """
    n = compose_block_number(blocks, gen, digits)
    params = {"blocks": tuple(tuple(b) for b in blocks), "n": n}
    starts = [l for l, _ in blocks if l >= 4]
    if not starts:
        return CheckReport.not_applicable(
            "block_pattern_lower_bound", params, "no block starts at rank >= 4"
        )
    if max(s for s in starts) + 1 > gen.depth:
        raise ValueError("depth too small for the spike cylinder")
    kern = np.abs(n * fejer_kernel(n, gen).values)
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


def run_suite(
    gen: GeneratorSequence, rng: np.random.Generator, tol: float = DEFAULT_TOL
) -> list[CheckReport]:
    """Run the full verification sweep for one generator sequence.

    The checks run one after another in a fixed order, so the same generator
    and seed give the same list of reports.
    """
    N = gen.depth
    reports = [check_dirichlet_at_scale(n, gen, tol) for n in range(N + 1)]
    reports += [check_dirichlet_scaled(n, s, gen, tol)
                for n in range(N) for s in range(1, gen.m[n])]
    reports += [check_dirichlet_shift(alpha, gen, tol)
                for alpha in range(N) if 2 * gen.scale[alpha] <= gen.size]
    reports += [check_kernel_block_decomposition(n, s, gen, tol)
                for n in range(min(N - 1, 5) + 1) for s in range(1, gen.m[n])]
    reports += [check_kernel_lower_bound(n, s, gen)
                for n in range(1, min(N - 1, 6) + 1) for s in range(1, gen.m[n])]
    reports += [check_kernel_vanishing(n, s, t, gen, tol)
                for n in range(2, min(N - 1, 5) + 1)
                for s in range(1, gen.m[n]) for t in range(n - 1)]
    if N >= 4:
        for n in range(1, gen.scale[4]):
            reports.append(check_kernel_digit_expansion(n, gen, tol))
            reports.append(check_digit_tail_bound(n, gen))
    reports += [check_block_pattern_lower_bound(p, gen)
                for p in _random_block_patterns(gen, rng, _BLOCK_SAMPLES)]
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
