"""Step functions on the group with exact integration and L_p machinery.

A GridFunction stores one complex value per depth-N cell, indexed by
``group.from_digits``.  Integration against the Haar measure and all the
L_p / weak-L_p quasi-norms are exact for such step functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from .group import GeneratorSequence, integer_arg

if TYPE_CHECKING:
    from .transform import SpectralVector

__all__ = [
    "GridFunction",
    "integrate",
    "conditional_expectation",
    "lp_quasinorm",
    "lp_quasinorm_rows",
    "weak_lp",
]

Scalar = Union[int, float, complex]


@dataclass(frozen=True)
class GridFunction:
    """A complex step function constant on depth-N cylinders.

    A GridFunction's values never change: ``values`` is marked read-only,
    so ``transform.forward_transform`` computes the spectrum once and keeps
    it in ``_spectrum`` for as long as the function lives; one made by
    ``synthesize`` or ``inverse_transform`` has its exact spectrum there
    from birth.  The one way to break the rule is to write through another
    writable view of the same buffer, made before the function.  The values
    are not copied to close that gap: a synthesis hands over a reshape view
    of its fresh result, and a copy would cost a grid per synthesis.
    """

    gen: GeneratorSequence
    values: np.ndarray
    _spectrum: Optional[SpectralVector] = field(
        default=None, init=False, repr=False, compare=False
    )

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


def integrate(f: GridFunction) -> complex:
    """Exact Haar integral: each depth-N cell has measure 1 / M_N."""
    return complex(np.mean(f.values))


def conditional_expectation(f: GridFunction, n: int) -> GridFunction:
    """E_n f = S_{M_n} f: f averaged over each depth-n cylinder, whose cells
    share the index residue mod M_n."""
    Mn = f.gen.scale[integer_arg("rank ", n, 0, f.gen.depth + 1)]
    means = f.values.reshape(-1, Mn).mean(axis=0)
    return GridFunction(f.gen, np.tile(means, f.gen.size // Mn))


def lp_quasinorm_rows(values: np.ndarray, p: float) -> np.ndarray:
    """((1/M_N) * sum |row|^p)^(1/p) of every row along the last axis.

    Each row is scaled by its largest magnitude first, so powers stay <= 1
    and no finite p overflows; an all-zero row gives 0.0.  A row's result
    does not depend on the rows beside it.  A row with a cell that is not
    finite (a cylinder mean of cells near the float limit) is refused.
    """
    if not 0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p}")
    mag = np.abs(values).astype(np.float64, copy=False)
    lead = mag.shape[:-1]
    mag = mag.reshape(-1, mag.shape[-1])
    top = mag.max(axis=-1)
    if not np.isfinite(top).all():
        raise ValueError("cell values must be finite")
    # Zero rows divide by 1: 0**p = 0 keeps them at 0.0 with no warning.
    # In place: a block of rows needs no second copy of its magnitudes.
    mag /= np.where(top > 0.0, top, 1.0)[:, None]
    mag **= p
    # The root is the scalar pow of each mean: numpy's array pow may round
    # the last bit differently (at p = 0.7, 1.5 and 3, for instance).
    roots = [m ** (1.0 / p) for m in mag.mean(axis=-1).tolist()]
    return (top * np.array(roots)).reshape(lead)


def lp_quasinorm(f: GridFunction, p: float) -> float:
    """((1/M_N) * sum |values|^p)^(1/p), exact for step functions."""
    return float(lp_quasinorm_rows(f.values, p))


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
