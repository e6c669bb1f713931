import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin import (
    GeneratorSequence,
    GridFunction,
    conditional_expectation,
    cylinder_indices,
    integrate,
    lp_quasinorm,
    lp_quasinorm_rows,
    vilenkin_fn,
    weak_lp,
)

from conftest import random_function

WALSH = GeneratorSequence.walsh(3)


def indicator_i1(gen=WALSH):
    return GridFunction.indicator(gen, cylinder_indices((0,) * gen.depth, 1, gen))


def test_integrate_constant(gen):
    assert integrate(GridFunction.constant(gen, 2.5 - 1j)) == pytest.approx(2.5 - 1j)


def test_integrate_character_zero(gen):
    for n in range(1, gen.size):
        assert abs(integrate(vilenkin_fn(n, gen))) < 1e-12


def test_integrate_half_cylinder():
    assert integrate(indicator_i1()) == pytest.approx(0.5)


def test_lp_character_unit(gen):
    for n in range(gen.size):
        assert lp_quasinorm(vilenkin_fn(n, gen), 2.0) == pytest.approx(1.0)


def test_lp_half_exponent_hand_value():
    f = 2.0 * indicator_i1()
    # ((1/2) * sqrt(2))^2 = 1/2
    assert lp_quasinorm(f, 0.5) == pytest.approx(0.5)


def test_lp_homogeneous(gen, rng):
    f = random_function(gen, rng)
    for p in (0.5, 1.0, 2.0):
        assert lp_quasinorm(3.5 * f, p) == pytest.approx(3.5 * lp_quasinorm(f, p))


def test_lp_rejects_nonpositive_exponent():
    with pytest.raises(ValueError):
        lp_quasinorm(indicator_i1(), 0.0)


@pytest.mark.parametrize("p", [math.inf, math.nan])
def test_norms_refuse_nonfinite_exponent(p):
    for norm in (lp_quasinorm, weak_lp):
        with pytest.raises(ValueError, match=f"got {p}"):
            norm(indicator_i1(), p)


EDGE_EXPONENTS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324]),
    st.floats(max_value=0.0),
    st.floats(min_value=5e-324, max_value=1e-6),
    st.floats(min_value=1e-6, max_value=8.0),
)


@given(EDGE_EXPONENTS)
@settings(max_examples=200)
def test_norm_exponent_contract(p):
    # finite positive p gives a finite value; anything else is refused by name
    f = random_function(GeneratorSequence((2, 3)), np.random.default_rng(4))
    for norm in (lp_quasinorm, weak_lp):
        if 0 < p < math.inf:
            assert 0 <= norm(f, p) < math.inf
        else:
            with pytest.raises(ValueError, match="p must be positive and finite"):
                norm(f, p)


def test_weak_lp_single_jump():
    assert weak_lp(indicator_i1(), 1.0) == pytest.approx(0.5)


def test_weak_lp_zero_function(gen):
    assert weak_lp(GridFunction.constant(gen, 0.0), 0.7) == 0.0


def test_weak_lp_chebyshev(gen, rng):
    for _ in range(10):
        f = random_function(gen, rng)
        for p in (0.5, 1.0, 2.0):
            assert weak_lp(f, p) <= lp_quasinorm(f, p) ** p + 1e-12


def test_weak_lp_matches_brute_force(gen, rng):
    f = random_function(gen, rng)
    p = 1.0
    mag = np.abs(f.values)
    brute = max(
        t**p * np.mean(mag > t)
        for t in np.linspace(1e-6, mag.max() * (1 - 1e-9), 4000)
    )
    assert weak_lp(f, p) == pytest.approx(brute, rel=1e-2)


def weak_lp_loop(f, p):
    """The definition read off directly: one pass over the cells per value."""
    mag = np.abs(f.values)
    best = 0.0
    for v in np.unique(mag):
        if v > 0:
            best = max(best, float(v**p * np.mean(mag >= v)))
    return best


def test_weak_lp_matches_value_loop(rng):
    # The vectorized power may round a value 1 ulp away from the scalar power
    # of the loop (psi_3 on (2, 3, 4, 2) shows it); nothing else differs.
    for gen in (WALSH, GeneratorSequence.walsh(8), GeneratorSequence((2, 3, 4, 2))):
        # Integer values give many ties; a third of these cells are exactly 0.
        ties = rng.integers(-3, 4, size=gen.size) * (rng.random(gen.size) > 1 / 3)
        functions = [
            vilenkin_fn(3, gen),
            random_function(gen, rng),
            GridFunction(gen, rng.integers(-3, 4, size=gen.size).astype(float)),
            GridFunction(gen, ties.astype(float)),
            GridFunction(gen, ties * (1 - 1j)),
            GridFunction(gen, np.where(np.arange(gen.size) % 2, 2.5, 0.0)),
            GridFunction.constant(gen, 0.0),
        ]
        for f in functions:
            for p in (0.25, 0.5, 1.0, 2.0, 7.0):
                assert weak_lp(f, p) == pytest.approx(weak_lp_loop(f, p), rel=4e-16, abs=0)


def test_lp_large_exponent_does_not_overflow():
    f = GridFunction(WALSH, np.array([3.0, 1.0, -2.0, 0.0, 1.0, 2.0, 3.0, -1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = lp_quasinorm(f, 700.0)
    assert 2.99 < norm <= 3.0
    assert norm == pytest.approx(3.0 * 0.25 ** (1 / 700), rel=1e-14)
    assert lp_quasinorm(GridFunction.constant(WALSH, 0.0), 700.0) == 0.0


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 0.7, 3.0])
def test_lp_rows_match_lp_quasinorm_bit_for_bit(p):
    # Complex rows of a 192-cell grid, one of them all zero.  The oracle is
    # the single-row formula with a scalar root; at p = 3 numpy's
    # array pow would round some roots differently.
    gen = GeneratorSequence((2, 2, 2, 3, 2, 4))
    rng = np.random.default_rng(192)
    rows = rng.standard_normal((6, gen.size)) + 1j * rng.standard_normal((6, gen.size))
    rows *= np.logspace(-3, 5, 6)[:, None]
    rows[2] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the zero row raises no RuntimeWarning
        norms = lp_quasinorm_rows(rows, p)
        assert lp_quasinorm_rows(rows.reshape(2, 3, gen.size), p).tolist() == (
            norms.reshape(2, 3).tolist())
        for row, norm in zip(rows, norms.tolist()):
            mag = np.abs(row)
            top = float(np.max(mag))
            scalar = top * float(np.mean((mag / top) ** p) ** (1.0 / p)) if top else 0.0
            assert norm == scalar == lp_quasinorm(GridFunction(gen, row), p)
    assert norms[2] == 0.0


def _tiled(f, extra):
    """f on the grid with the digits ``extra`` added above its own: the index
    of a deeper cell reduces mod M_N to f's cell, so the values repeat."""
    deeper = GeneratorSequence(f.gen.m + extra)
    return GridFunction(deeper, np.tile(f.values, deeper.size // f.gen.size))


@pytest.mark.parametrize("extra", [(2, 3), (5,)])
def test_norms_unchanged_on_a_deeper_grid(gen, rng, extra):
    f = random_function(gen, rng)
    g = _tiled(f, extra)
    assert integrate(g) == pytest.approx(integrate(f))
    for p in (0.5, 1.0, 2.0):
        assert lp_quasinorm(g, p) == pytest.approx(lp_quasinorm(f, p))
        assert weak_lp(g, p) == pytest.approx(weak_lp(f, p))


@pytest.mark.parametrize("extra", [(2, 3), (5,)])
def test_cylinder_means_commute_with_tiling(gen, rng, extra):
    # a function of the first N digits is its own rank-N cylinder mean, and
    # its lower cylinder means are those of f, tiled
    f = random_function(gen, rng)
    g = _tiled(f, extra)
    assert np.max(np.abs(conditional_expectation(g, gen.depth).values - g.values)) < 1e-12
    for n in range(gen.depth + 1):
        lifted = _tiled(conditional_expectation(f, n), extra).values
        assert np.max(np.abs(conditional_expectation(g, n).values - lifted)) < 1e-12


def test_quasi_triangle_half(gen, rng):
    for _ in range(20):
        f = random_function(gen, rng)
        g = random_function(gen, rng)
        lhs = lp_quasinorm(f + g, 0.5) ** 0.5
        rhs = lp_quasinorm(f, 0.5) ** 0.5 + lp_quasinorm(g, 0.5) ** 0.5
        assert lhs <= rhs + 1e-12


def test_arithmetic_and_validation():
    f = indicator_i1()
    assert np.allclose((f + f).values, 2 * f.values)
    assert np.allclose((f - f).values, 0)
    assert np.allclose((f * f).values, f.values)
    with pytest.raises(ValueError):
        GridFunction(WALSH, np.ones(5))
    with pytest.raises(ValueError):
        GridFunction(WALSH, np.array([np.nan] * 8))
    with pytest.raises(ValueError):
        f + GridFunction.constant(GeneratorSequence((2, 2)), 1.0)


@given(st.floats(min_value=0.25, max_value=4.0))
@settings(max_examples=50)
def test_weak_lp_indicator_closed_form(p):
    # |f| = 1 on a half cylinder: weak norm is (1/2)
    f = indicator_i1()
    assert weak_lp(f, p) == pytest.approx(0.5)
