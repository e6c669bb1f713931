import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin import (
    GeneratorSequence,
    GridFunction,
    cylinder_indices,
    integrate,
    lp_quasinorm,
    refine,
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


def test_refine_identity(gen, rng):
    f = random_function(gen, rng)
    assert np.array_equal(refine(f, gen).values, f.values)


def test_refine_preserves_integral_and_norms(gen, rng):
    deeper = GeneratorSequence(gen.m + (2, 3))
    f = random_function(gen, rng)
    g = refine(f, deeper)
    assert integrate(g) == pytest.approx(integrate(f))
    for p in (0.5, 1.0, 2.0):
        assert lp_quasinorm(g, p) == pytest.approx(lp_quasinorm(f, p))
        assert weak_lp(g, p) == pytest.approx(weak_lp(f, p))


def test_refine_rejects_mismatched_prefix():
    f = GridFunction.constant(WALSH, 1.0)
    with pytest.raises(ValueError):
        refine(f, GeneratorSequence((2, 3, 2, 2)))


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


def test_csv_round_trip(gen, rng):
    f = random_function(gen, rng)
    buf = io.StringIO()
    f.to_csv(buf)
    buf.seek(0)
    g = GridFunction.from_csv(gen, buf)
    assert np.max(np.abs(f.values - g.values)) < 1e-15


@given(st.floats(min_value=0.25, max_value=4.0))
@settings(max_examples=50)
def test_weak_lp_indicator_closed_form(p):
    # |f| = 1 on a half cylinder: weak norm is (1/2)
    f = indicator_i1()
    assert weak_lp(f, p) == pytest.approx(0.5)
