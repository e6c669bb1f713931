"""Digit and group arithmetic for bounded Vilenkin groups.

A generator sequence m = (m_0, ..., m_{N-1}) with every m_k >= 2 defines the
finite-depth model of the Vilenkin group G_m: points are digit vectors
x = (x_0, ..., x_{N-1}) with x_k in Z_{m_k}, added coordinatewise mod m_k.
The scale factors M_0 = 1, M_{k+1} = m_k * M_k give the mixed-radix number
system used to index both group points and characters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "GeneratorSequence",
    "DigitExpansion",
    "scale_factors",
    "to_digits",
    "from_digits",
    "group_add",
    "group_sub",
    "point_index",
    "index_point",
    "cylinder_indices",
    "variation",
    "variation_table",
    "digit_values",
]


def scale_factors(m: Sequence[int]) -> tuple[int, ...]:
    """Return (M_0, ..., M_N) with M_0 = 1 and M_{k+1} = m_k * M_k."""
    out = [1]
    for b in m:
        if b < 2:
            raise ValueError(f"generator entries must be >= 2, got {b}")
        out.append(out[-1] * b)
    return tuple(out)


@dataclass(frozen=True)
class GeneratorSequence:
    """A finite bounded generator sequence and its derived number system."""

    m: tuple[int, ...]

    def __post_init__(self) -> None:
        for b in self.m:
            if not float(b).is_integer():
                raise ValueError(f"generator entries must be integers, got {b}")
        object.__setattr__(self, "m", tuple(int(b) for b in self.m))
        scale_factors(self.m)  # validates entries

    @cached_property
    def scale(self) -> tuple[int, ...]:
        return scale_factors(self.m)

    @property
    def depth(self) -> int:
        return len(self.m)

    @property
    def size(self) -> int:
        """Number of depth-N cells, M_N."""
        return self.scale[-1]

    @classmethod
    def walsh(cls, depth: int) -> "GeneratorSequence":
        return cls.constant(2, depth)

    @classmethod
    def constant(cls, base: int, depth: int) -> "GeneratorSequence":
        return cls.cycle((base,), depth)

    @classmethod
    def cycle(cls, pattern: Sequence[int], depth: int) -> "GeneratorSequence":
        if depth < 0:
            raise ValueError(f"depth={depth} must be >= 0")
        if not pattern:
            raise ValueError("cycle pattern must be nonempty")
        it = itertools.cycle(pattern)
        return cls(tuple(next(it) for _ in range(depth)))


@dataclass(frozen=True)
class DigitExpansion:
    """Mixed-radix expansion n = sum_j digits[j] * M_j with its order.

    ``order`` is the largest j with a nonzero digit, or -1 for n = 0.
    """

    n: int
    digits: tuple[int, ...]
    order: int


def to_digits(n: int, gen: GeneratorSequence) -> DigitExpansion:
    """Expand 0 <= n < M_N in the mixed-radix system of ``gen``."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"n={n!r} is not an integer")
    if not 0 <= n < gen.size:
        raise ValueError(f"n={n} out of range [0, {gen.size})")
    digits = []
    rem = n
    for b in gen.m:
        digits.append(rem % b)
        rem //= b
    order = max((j for j, d in enumerate(digits) if d), default=-1)
    return DigitExpansion(n, tuple(digits), order)


def from_digits(digits: Sequence[int], gen: GeneratorSequence) -> int:
    if len(digits) != gen.depth:
        raise ValueError("digit vector length must equal depth")
    for d, b in zip(digits, gen.m):
        if not 0 <= d < b:
            raise ValueError(f"digit {d} out of range for base {b}")
    return sum(d * M for d, M in zip(digits, gen.scale))


def group_add(
    x: Sequence[int], y: Sequence[int], gen: GeneratorSequence
) -> tuple[int, ...]:
    """Coordinatewise sum mod m_k."""
    if len(x) != gen.depth or len(y) != gen.depth:
        raise ValueError("points must have one digit per generator entry")
    return tuple((a + b) % mk for a, b, mk in zip(x, y, gen.m))


def group_sub(
    x: Sequence[int], y: Sequence[int], gen: GeneratorSequence
) -> tuple[int, ...]:
    """Inverse of group_add: group_add(group_sub(x, y), y) == x."""
    if len(x) != gen.depth or len(y) != gen.depth:
        raise ValueError("points must have one digit per generator entry")
    return tuple((a - b) % mk for a, b, mk in zip(x, y, gen.m))


def point_index(x: Sequence[int], gen: GeneratorSequence) -> int:
    """Bijection from depth-N points to [0, M_N), digit k weighted by M_k."""
    return from_digits(x, gen)


def index_point(gen: GeneratorSequence, i: int) -> tuple[int, ...]:
    return to_digits(i, gen).digits


@lru_cache(maxsize=None)
def digit_values(gen: GeneratorSequence, k: int) -> np.ndarray:
    """Digit x_k of every index, as an integer array of length M_N."""
    if not 0 <= k < gen.depth:
        raise ValueError(f"digit position {k} out of range")
    return (np.arange(gen.size) // gen.scale[k]) % gen.m[k]


def cylinder_indices(x: Sequence[int], n: int, gen: GeneratorSequence) -> np.ndarray:
    """Indices of the cylinder I_n(x): all points agreeing with x below n.

    The cylinder has exactly M_N / M_n points and Haar measure 1 / M_n.
    """
    if not 0 <= n <= gen.depth:
        raise ValueError(f"rank {n} out of range [0, {gen.depth}]")
    Mn = gen.scale[n]
    base = point_index(x, gen) % Mn
    return base + Mn * np.arange(gen.size // Mn)


def _delta(n: int, gen: GeneratorSequence) -> list[int]:
    """Digit sign indicators, padded with one trailing zero."""
    exp = to_digits(n, gen)
    return [1 if d else 0 for d in exp.digits] + [0]


def variation(n: int, gen: GeneratorSequence) -> int:
    """Digit-sign variation v(n) = sum_j |delta_{j+1} - delta_j| + delta_0.

    The infinite sum truncates after the leading digit; all later terms vanish.
    """
    d = _delta(n, gen)
    return sum(abs(d[j + 1] - d[j]) for j in range(len(d) - 1)) + d[0]


def variation_table(count: int, gen: GeneratorSequence) -> np.ndarray:
    """v(l) for l = 0, ..., count - 1, in exact integer arithmetic.

    Builds the digit signs delta_j(l) = [(l // M_j) % m_j != 0] a digit at a
    time; digits j with M_j >= count vanish for every l < count, so the
    padding zero follows the last digit with M_j < count.
    """
    if not 0 <= count <= gen.size:
        raise ValueError(f"count={count} out of range [0, {gen.size}]")
    l = np.arange(count)
    top = sum(1 for M in gen.scale[:-1] if M < count)
    signs = [(l // gen.scale[j]) % gen.m[j] != 0 for j in range(top)]
    signs.append(np.zeros(count, dtype=bool))
    table = signs[0].astype(np.int64)
    for lower, upper in zip(signs, signs[1:]):
        table += lower != upper
    return table
