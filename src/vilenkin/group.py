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
from operator import mul
from typing import Sequence

import numpy as np

__all__ = [
    "GeneratorSequence",
    "to_digits",
    "from_digits",
    "group_add",
    "group_sub",
    "cylinder_indices",
    "variation",
    "variation_table",
    "digit_values",
]
# integer_arg and integer_args are public but not listed: bench/tracing.py
# wraps every function in __all__, and a span around each index check would
# swamp the spans of the functions that make them.


@dataclass(frozen=True)
class GeneratorSequence:
    """A finite bounded generator sequence and its derived number system."""

    m: tuple[int, ...]

    def __post_init__(self) -> None:
        for b in self.m:
            if not float(b).is_integer():
                raise ValueError(f"generator entries must be integers, got {b}")
        object.__setattr__(self, "m", tuple(int(b) for b in self.m))
        for b in self.m:
            if b < 2:
                raise ValueError(f"generator entries must be >= 2, got {b}")

    @cached_property
    def scale(self) -> tuple[int, ...]:
        """(M_0, ..., M_N) with M_0 = 1 and M_{k+1} = m_k * M_k."""
        return tuple(itertools.accumulate(self.m, mul, initial=1))

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


def integer_arg(label: str, value: object, low: int, stop: float) -> int:
    """One rank, order, count or digit, checked to lie in [low, stop), as an
    int.  Only an int or np.integer is one: a bool is refused, not read as
    0 or 1, and so is anything else, an integral float or a sequence too;
    the message names the value after ``label``.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if not low <= value < stop:
            raise ValueError(f"{label}{value} out of range [{low}, {stop})")
        return int(value)
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{label}{value} is a bool, not an integer")
    raise ValueError(f"{label}{value!r} is not an integer")


def integer_args(label: str, values: object, low: int, stop: float) -> np.ndarray:
    """A list, tuple, range or 1-d array of orders (which may be empty), each
    checked as ``integer_arg`` checks one, as an int64 array; anything else
    is refused by value."""
    if isinstance(values, range) or isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        orders = np.asarray(values, dtype=np.int64)
        if orders.ndim == 1:
            bad = orders[(orders < low) | (orders >= stop)]
            if bad.size:
                raise ValueError(f"{label}{bad[0]} out of range [{low}, {stop})")
            return orders
    elif isinstance(values, (list, tuple)) or isinstance(values, np.ndarray) and values.ndim == 1:
        items = values.tolist() if isinstance(values, np.ndarray) else values
        return np.array([integer_arg(label, v, low, stop) for v in items], dtype=np.int64)
    raise ValueError(f"{label}{values!r} is not a sequence of integers")


def to_digits(n: int, gen: GeneratorSequence) -> tuple[int, ...]:
    """Digits (n_0, ..., n_{N-1}) of 0 <= n < M_N, n = sum_j n_j * M_j; read
    as a point x, the bijection from [0, M_N) whose inverse is from_digits."""
    digits = []
    rem = integer_arg("n=", n, 0, gen.size)
    for b in gen.m:
        digits.append(rem % b)
        rem //= b
    return tuple(digits)


def _point(x: Sequence[int], gen: GeneratorSequence) -> Sequence[int]:
    """x, refused unless it holds one integer digit x_k in [0, m_k) per
    generator entry."""
    if len(x) != gen.depth:
        raise ValueError(f"point {tuple(x)} has {len(x)} digits, the depth is {gen.depth}")
    for k, (d, b) in enumerate(zip(x, gen.m)):
        integer_arg(f"digit x_{k}=", d, 0, b)
    return x


def from_digits(x: Sequence[int], gen: GeneratorSequence) -> int:
    """Inverse of ``to_digits``: the index sum_k x_k * M_k of the point x."""
    return sum(d * M for d, M in zip(_point(x, gen), gen.scale))


def group_add(
    x: Sequence[int], y: Sequence[int], gen: GeneratorSequence
) -> tuple[int, ...]:
    """Coordinatewise sum mod m_k."""
    return tuple((a + b) % mk for a, b, mk in zip(_point(x, gen), _point(y, gen), gen.m))


def group_sub(
    x: Sequence[int], y: Sequence[int], gen: GeneratorSequence
) -> tuple[int, ...]:
    """Inverse of group_add: group_add(group_sub(x, y), y) == x."""
    return tuple((a - b) % mk for a, b, mk in zip(_point(x, gen), _point(y, gen), gen.m))


@lru_cache(maxsize=None, typed=True)  # typed: True must not hit the entry of 1
def digit_values(gen: GeneratorSequence, k: int) -> np.ndarray:
    """Digit x_k of every index, as an integer array of length M_N."""
    k = integer_arg("digit position ", k, 0, gen.depth)
    return (np.arange(gen.size) // gen.scale[k]) % gen.m[k]


def cylinder_indices(x: Sequence[int], n: int, gen: GeneratorSequence) -> np.ndarray:
    """Indices of the cylinder I_n(x): all points agreeing with x below n.

    The cylinder has exactly M_N / M_n points and Haar measure 1 / M_n.
    """
    Mn = gen.scale[integer_arg("rank ", n, 0, gen.depth + 1)]
    base = from_digits(x, gen) % Mn
    return base + Mn * np.arange(gen.size // Mn)


def _delta(n: int, gen: GeneratorSequence) -> list[int]:
    """Digit sign indicators, padded with one trailing zero."""
    return [1 if d else 0 for d in to_digits(n, gen)] + [0]


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
    count = integer_arg("count=", count, 0, gen.size + 1)
    l = np.arange(count)
    top = sum(1 for M in gen.scale[:-1] if M < count)
    signs = [(l // gen.scale[j]) % gen.m[j] != 0 for j in range(top)]
    signs.append(np.zeros(count, dtype=bool))
    table = signs[0].astype(np.int64)
    for lower, upper in zip(signs, signs[1:]):
        table += lower != upper
    return table
