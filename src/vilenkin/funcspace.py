"""Step functions on the group with exact integration and L_p machinery.

A GridFunction stores one complex value per depth-N cell, indexed by
``group.point_index``.  Integration against the Haar measure and all the
L_p / weak-L_p quasi-norms are exact for such step functions.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Union

import numpy as np

from .group import GeneratorSequence

__all__ = ["GridFunction", "integrate", "lp_quasinorm", "weak_lp", "refine"]

Scalar = Union[int, float, complex]


@dataclass(frozen=True)
class GridFunction:
    """A complex step function constant on depth-N cylinders."""

    gen: GeneratorSequence
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.gen.size,):
            raise ValueError(
                f"expected {self.gen.size} cell values, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("cell values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, gen: GeneratorSequence, c: Scalar) -> "GridFunction":
        return cls(gen, np.full(gen.size, c, dtype=np.complex128))

    @classmethod
    def indicator(cls, gen: GeneratorSequence, indices: np.ndarray) -> "GridFunction":
        v = np.zeros(gen.size, dtype=np.complex128)
        v[indices] = 1.0
        return cls(gen, v)

    # pointwise arithmetic -------------------------------------------------

    def _coerce(self, other: "GridFunction | Scalar") -> np.ndarray:
        if isinstance(other, GridFunction):
            if other.gen != self.gen:
                raise ValueError("mismatched generator sequences")
            return other.values
        return np.full(self.gen.size, other, dtype=np.complex128)

    def __add__(self, other: "GridFunction | Scalar") -> "GridFunction":
        return GridFunction(self.gen, self.values + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other: "GridFunction | Scalar") -> "GridFunction":
        return GridFunction(self.gen, self.values - self._coerce(other))

    def __mul__(self, other: "GridFunction | Scalar") -> "GridFunction":
        return GridFunction(self.gen, self.values * self._coerce(other))

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.gen, -self.values)

    # serialization --------------------------------------------------------

    def to_csv(self, stream: IO[str]) -> None:
        """Write rows (index, real, imag)."""
        w = csv.writer(stream, lineterminator="\n")
        w.writerow(["index", "real", "imag"])
        for i, v in enumerate(self.values):
            w.writerow([i, format(v.real, ".17g"), format(v.imag, ".17g")])

    @classmethod
    def from_csv(cls, gen: GeneratorSequence, stream: IO[str]) -> "GridFunction":
        r = csv.reader(stream)
        header = next(r)
        if header[:3] != ["index", "real", "imag"]:
            raise ValueError(f"unexpected header {header}")
        v = np.zeros(gen.size, dtype=np.complex128)
        seen = np.zeros(gen.size, dtype=bool)
        for row in r:
            i = int(row[0])
            if not 0 <= i < gen.size:
                raise ValueError(f"row index {i} out of range [0, {gen.size})")
            if seen[i]:
                raise ValueError(f"duplicate row index {i}")
            seen[i] = True
            v[i] = float(row[1]) + 1j * float(row[2])
        missing = np.flatnonzero(~seen)
        if missing.size:
            raise ValueError(
                f"missing row index {missing[0]} ({missing.size} of {gen.size} missing)"
            )
        return cls(gen, v)


def integrate(f: GridFunction) -> complex:
    """Exact Haar integral: each depth-N cell has measure 1 / M_N."""
    return complex(np.mean(f.values))


def lp_quasinorm(f: GridFunction, p: float) -> float:
    """((1/M_N) * sum |values|^p)^(1/p), exact for step functions."""
    if not 0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p}")
    mag = np.abs(f.values)
    top = float(np.max(mag))
    if top == 0.0:
        return 0.0
    # Powers of |f| / max |f| stay <= 1, so no finite p overflows.
    return top * float(np.mean((mag / top) ** p) ** (1.0 / p))


def weak_lp(f: GridFunction, p: float) -> float:
    """sup_{t>0} t^p * mu{|f| > t}, evaluated exactly.

    The distribution function of a step function jumps only at the distinct
    values of |f|, and the supremum is attained as t increases to one of
    them, so it equals max_v v^p * mu{|f| >= v}.  In sorted order the cells
    with |f| >= v are those from the first occurrence of v on.
    """
    if not 0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p}")
    mag = np.sort(np.abs(f.values))
    v, first = np.unique(mag, return_index=True)
    pos = v > 0
    measure = (mag.size - first[pos]) / mag.size
    return float(np.max(v[pos] ** p * measure, initial=0.0))


def refine(f: GridFunction, gen: GeneratorSequence) -> GridFunction:
    """Re-express f on a deeper grid whose generator extends f's.

    New digits sit above the old ones in the index, so the cell values are
    tiled; integrals and every quasi-norm are unchanged.
    """
    if gen.m[: f.gen.depth] != f.gen.m:
        raise ValueError("refinement generator must extend the original")
    reps = gen.size // f.gen.size
    return GridFunction(gen, np.tile(f.values, reps))
