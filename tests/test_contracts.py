"""The library's public callables refuse bad input with a ValueError that
names the value, one (callable, bad argument, message fragment) row each."""

import math
import re
import warnings

import numpy as np
import pytest

from vilenkin import (
    GeneratorSequence,
    GridFunction,
    SpectralVector,
    conditional_expectation,
    rademacher,
    synthesize,
    vilenkin_fn,
)
from vilenkin.group import to_digits, variation
from vilenkin.identities import run_suite

G = GeneratorSequence.constant(2, 3)
F = GridFunction(G, np.arange(G.size, dtype=float))


def spectrum_with(bad):
    coeffs = np.zeros(G.size, dtype=np.complex128)
    coeffs[3] = bad
    return SpectralVector(G, coeffs)


def synthesize_with(bad):
    return synthesize(G, [0.0, 0.0, bad])


def suite_at(tol):
    return run_suite(G, np.random.default_rng(0), tol=tol)


CONTRACTS = [
    # Indexing the scales with these raised a bare TypeError.
    (lambda n: conditional_expectation(F, n), 1.5, "rank 1.5 is not an integer"),
    (lambda n: conditional_expectation(F, n), "2", "rank '2' is not an integer"),
    # The run failed only later, with a message about cell values.
    (spectrum_with, math.nan, "coefficients must be finite, got coeffs[3]=(nan+0j)"),
    (spectrum_with, complex(0, math.inf), "coefficients must be finite, got coeffs[3]=infj"),
    # Both warned of an invalid value in a matmul, then named no value.
    (synthesize_with, math.nan, "coefficients must be finite, got coeffs[2]=(nan+0j)"),
    (synthesize_with, complex(0, math.inf), "coefficients must be finite, got coeffs[2]=infj"),
    # Both returned 53 reports without complaint.
    (suite_at, math.nan, "tol=nan must be finite and >= 0"),
    (suite_at, -1.0, "tol=-1.0 must be finite and >= 0"),
    # The first two answered with fractional digits and v(2.5) = 2; the
    # last two raised a bare TypeError and numpy's IndexError.
    (lambda n: to_digits(n, G), 2.5, "n=2.5 is not an integer"),
    (lambda n: variation(n, G), 2.5, "n=2.5 is not an integer"),
    (lambda k: rademacher(k, G), 1.5, "rank 1.5 is not an integer"),
    (lambda n: vilenkin_fn(n, G), 2.5, "n=2.5 is not an integer"),
]


@pytest.mark.parametrize(
    "call, bad, fragment", CONTRACTS,
    ids=["E_n-fraction", "E_n-string", "spectrum-nan", "spectrum-inf-imag",
         "synthesize-nan", "synthesize-inf-imag", "run_suite-nan", "run_suite-negative",
         "to_digits-fraction", "variation-fraction", "rademacher-fraction",
         "vilenkin_fn-fraction"],
)
def test_bad_argument_is_refused_by_value(call, bad, fragment):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic warns
        with pytest.raises(ValueError, match=re.escape(fragment)):
            call(bad)
