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
    counterexample_martingale,
    cylinder_indices,
    dirichlet,
    from_digits,
    group_add,
    group_sub,
    is_p_atom,
    lebesgue_constant,
    rademacher,
    select_alphas,
    sigma_norm_profile,
    strong_sums,
    synthesize,
    variation_table,
    vilenkin_fn,
)
from vilenkin.group import digit_values, integer_args, to_digits, variation
from vilenkin.identities import (
    check_block_pattern_lower_bound,
    check_dirichlet_at_scale,
    check_dirichlet_scaled,
    check_dirichlet_shift,
    check_digit_tail_bound,
    check_kernel_block_decomposition,
    check_kernel_lower_bound,
    check_kernel_vanishing,
    run_suite,
)

G = GeneratorSequence.constant(2, 3)
G3 = GeneratorSequence((2, 3, 4))  # m_1 = 3 admits s = 1, 2 at rank 1
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
    # A point outside the group: 0.5, then cylinder indices 0.5, 2.5, 4.5,
    # 6.5 and (1.5, 0, 0); the last two both gave (1, 0, 0).
    (lambda x: from_digits(x, G), (0.5, 0, 0), "digit x_0=0.5 is not an integer"),
    (lambda x: cylinder_indices(x, 1, G), (0.5, 0, 0), "digit x_0=0.5 is not an integer"),
    (lambda x: group_add(x, (1, 0, 0), G), (0.5, 0, 0), "digit x_0=0.5 is not an integer"),
    (lambda x: group_add(x, (0, 0, 0), G), (5, 0, 0), "digit x_0=5 out of range [0, 2)"),
    (lambda y: group_sub((0, 0, 0), y, G), (-1, 0, 0), "digit x_0=-1 out of range [0, 2)"),
    (lambda x: from_digits(x, G), (0, 1), "point (0, 1) has 2 digits, the depth is 3"),
    # The first ran rank 2 (int(2.5)); the others raised a bare TypeError.
    (lambda a: counterexample_martingale(lambda n: 1.0, [a], G), 2.5,
     "rank 2.5 is not an integer"),
    (lambda n: cylinder_indices((0, 0, 0), n, G), 1.5, "rank 1.5 is not an integer"),
    (lambda n: is_p_atom(F, n, (0, 0, 0), 0.5), 1.5, "rank 1.5 is not an integer"),
    (lambda k: digit_values(G, k), 1.5, "digit position 1.5 is not an integer"),
    (lambda n: check_dirichlet_at_scale(n, G), 1.5, "rank 1.5 is not an integer"),
    # Each raised a bare TypeError from tuple or slice indices.
    (lambda n: check_dirichlet_scaled(n, 1, G), 1.5, "rank 1.5 is not an integer"),
    (lambda s: check_dirichlet_scaled(1, s, G3), 1.5, "s=1.5 is not an integer"),
    (lambda a: check_dirichlet_shift(a, G), 1.5, "rank 1.5 is not an integer"),
    (lambda n: check_kernel_block_decomposition(n, 1, G), 1.5, "rank 1.5 is not an integer"),
    (lambda n: check_kernel_lower_bound(n, 1, G), 1.5, "rank 1.5 is not an integer"),
    (lambda n: check_kernel_vanishing(n, 1, 0, G), 2.5, "rank 2.5 is not an integer"),
    (lambda count: select_alphas(lambda n: 1.0, count, G), 2.5, "count=2.5 is not an integer"),
    (lambda count: variation_table(count, G), 2.5, "count=2.5 is not an integer"),
    (lambda l: check_block_pattern_lower_bound([(l, 5)], G), 4.5,
     "block bound 4.5 is not an integer"),
    # Rank -2 read scale[-2] = M_2 and ran the check at rank 2.
    (lambda a: check_dirichlet_shift(a, G), -2, "rank -2 out of range [0, 3)"),
    # A bool is refused as an order; each ran as n = 1.
    (lambda n: sigma_norm_profile(F, n), True, "nmax=True is a bool, not an integer"),
    (lambda n: strong_sums(F, n), True, "n=True is a bool, not an integer"),
    (lambda n: dirichlet(n, G), True, "n=True is a bool, not an integer"),
    (lambda n: lebesgue_constant(n, G), True, "n=True is a bool, not an integer"),
    # Each ran as 1, except variation_table, which raised a bare TypeError;
    # digit_values answered from the cached entry of position 1.
    (lambda n: conditional_expectation(F, n), True, "rank True is a bool, not an integer"),
    (lambda n: to_digits(n, G), True, "n=True is a bool, not an integer"),
    (lambda k: rademacher(k, G), True, "rank True is a bool, not an integer"),
    (lambda n: cylinder_indices((0, 0, 0), n, G), True, "rank True is a bool, not an integer"),
    (lambda k: (digit_values(G, 1), digit_values(G, k)), True,
     "digit position True is a bool, not an integer"),
    (lambda n: check_dirichlet_scaled(n, 1, G), True, "rank True is a bool, not an integer"),
    (lambda n: check_digit_tail_bound(n, G), True, "n=True is a bool, not an integer"),
    (lambda a: counterexample_martingale(lambda n: 1.0, [a, 2], G), True,
     "rank True is a bool, not an integer"),
    (lambda count: select_alphas(lambda n: 1.0, count, G), True,
     "count=True is a bool, not an integer"),
    (lambda count: variation_table(count, G), True, "count=True is a bool, not an integer"),
    # Both ran as the integer order, 7 and 3.
    (lambda n: sigma_norm_profile(F, n), 7.0, "nmax=7.0 is not an integer"),
    (lambda n: dirichlet(n, G), 3.0, "n=3.0 is not an integer"),
    # The shared check itself, on an order list holding a numpy bool.
    (lambda ns: integer_args("n=", ns, 0, G.size), [3, np.True_],
     "n=True is a bool, not an integer"),
    # A sequence where one index is expected was read as orders: to_digits
    # returned one-element digit arrays, and the others raised a bare
    # TypeError from numpy or from slicing.
    (lambda n: to_digits(n, G), [5], "n=[5] is not an integer"),
    (lambda n: conditional_expectation(F, n), [1], "rank [1] is not an integer"),
    (lambda k: rademacher(k, G), (1,), "rank (1,) is not an integer"),
    (lambda n: sigma_norm_profile(F, n), [4], "nmax=[4] is not an integer"),
    (lambda n: dirichlet(n, G), [3], "n=[3] is not an integer"),
    (lambda ns: integer_args("n=", ns, 0, G.size), [[3]], "n=[3] is not an integer"),
    # The cache was asked first: lru_cache's TypeError, unhashable 'list'.
    (lambda k: digit_values(G, k), [1], "digit position [1] is not an integer"),
    (lambda ns: integer_args("n=", ns, 0, G.size), 3, "n=3 is not a sequence of integers"),
    (lambda ns: integer_args("n=", ns, 0, G.size), np.ones((1, 2), dtype=int),
     "n=array([[1, 1]]) is not a sequence of integers"),
    # The grid was built first and refused, with no rank or weight named.
    (lambda c: counterexample_martingale(lambda n: c, [1, 2], G), 1e308,
     f"rank 1: lambda_1={1e308 / math.log(2)} overflows the cell value at 0"),
]


@pytest.mark.parametrize(
    "call, bad, fragment", CONTRACTS,
    ids=["E_n-fraction", "E_n-string", "spectrum-nan", "spectrum-inf-imag",
         "synthesize-nan", "synthesize-inf-imag", "run_suite-nan", "run_suite-negative",
         "to_digits-fraction", "variation-fraction", "rademacher-fraction",
         "vilenkin_fn-fraction", "from_digits-fraction", "cylinder-fraction-digit",
         "group_add-fraction", "group_add-too-large", "group_sub-negative",
         "from_digits-short", "counterexample-fraction-rank", "cylinder-fraction-rank",
         "is_p_atom-fraction-rank", "digit_values-fraction", "dirichlet_at_scale-fraction",
         "dirichlet_scaled-fraction-rank", "dirichlet_scaled-fraction-s",
         "dirichlet_shift-fraction", "block_decomposition-fraction",
         "kernel_lower_bound-fraction", "kernel_vanishing-fraction",
         "select_alphas-fraction", "variation_table-fraction", "block_pattern-fraction",
         "dirichlet_shift-negative", "sigma_profile-bool", "strong_sums-bool",
         "dirichlet-bool", "lebesgue-bool", "E_n-bool", "to_digits-bool", "rademacher-bool",
         "cylinder-bool-rank", "digit_values-bool", "dirichlet_scaled-bool",
         "digit_tail_bound-bool", "counterexample-bool-rank", "select_alphas-bool",
         "variation_table-bool", "sigma_profile-integral-float", "dirichlet-integral-float",
         "integer_args-numpy-bool", "to_digits-list", "E_n-list", "rademacher-tuple",
         "sigma_profile-list", "dirichlet-list", "integer_args-nested", "digit_values-list",
         "integer_args-scalar",
         "integer_args-2d", "counterexample-overflow"],
)
def test_bad_argument_is_refused_by_value(call, bad, fragment):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic warns
        with pytest.raises(ValueError, match=re.escape(fragment)):
            call(bad)
