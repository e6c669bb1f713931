import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin import (
    GeneratorSequence,
    cylinder_indices,
    from_digits,
    group_add,
    group_sub,
    to_digits,
    variation,
    variation_table,
)

WALSH = GeneratorSequence.walsh(3)


def test_scale_factors_binary():
    assert GeneratorSequence((2, 2, 2)).scale == (1, 2, 4, 8)


def test_scale_factors_mixed():
    assert GeneratorSequence((2, 3, 4)).scale == (1, 2, 6, 24)


def test_scale_factors_empty():
    assert GeneratorSequence(()).scale == (1,)


def test_scale_factors_rejects_small_generator():
    with pytest.raises(ValueError):
        GeneratorSequence((2, 1, 2))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: GeneratorSequence((2.5, 2)), "integers, got 2.5"),
        (lambda: GeneratorSequence((2, np.nan)), "integers, got nan"),
        (lambda: GeneratorSequence.walsh(-1), "depth=-1 must be >= 0"),
        (lambda: GeneratorSequence.constant(3, -2), "depth=-2 must be >= 0"),
        (lambda: GeneratorSequence.cycle([2, 3], -1), "depth=-1 must be >= 0"),
    ],
    ids=["fraction", "nan", "walsh", "constant", "cycle"],
)
def test_generator_refuses_bad_input_by_value(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_generator_keeps_integral_floats_and_depth_zero():
    assert GeneratorSequence((2.0, np.int64(3))).m == (2, 3)
    assert GeneratorSequence.walsh(0).size == 1
    assert GeneratorSequence.cycle([2, 3], 0).m == ()


def test_to_digits_binary():
    assert to_digits(5, WALSH) == (1, 0, 1)


def test_to_digits_mixed_radix():
    # 7 = 1*1 + 0*2 + 1*6 in base (2, 3, 4)
    assert to_digits(7, GeneratorSequence((2, 3, 4))) == (1, 0, 1)


def test_to_digits_zero():
    assert to_digits(0, WALSH) == (0, 0, 0)


def test_to_digits_rejects_out_of_range():
    with pytest.raises(ValueError):
        to_digits(8, WALSH)


def test_digit_round_trip_exhaustive(gen):
    for n in range(gen.size):
        assert from_digits(to_digits(n, gen), gen) == n


def test_group_add_walsh():
    assert group_add((1, 1, 0), (1, 0, 1), WALSH) == (0, 1, 1)


def test_group_sub_ternary_digit():
    g = GeneratorSequence.constant(3, 1)
    assert group_sub((0,), (1,), g) == (2,)


def test_group_identity(gen):
    zero = (0,) * gen.depth
    for i in range(gen.size):
        x = to_digits(i, gen)
        assert group_add(x, zero, gen) == x


def test_group_add_associative_commutative(gen):
    pts = [to_digits(i, gen) for i in range(gen.size)]
    for x in pts[:6]:
        for y in pts[:6]:
            assert group_add(x, y, gen) == group_add(y, x, gen)
            for z in pts[:4]:
                assert group_add(group_add(x, y, gen), z, gen) == group_add(
                    x, group_add(y, z, gen), gen
                )


def test_sub_inverts_add(gen):
    rng = np.random.default_rng(7)
    for _ in range(30):
        x = to_digits(int(rng.integers(gen.size)), gen)
        y = to_digits(int(rng.integers(gen.size)), gen)
        assert group_add(group_sub(x, y, gen), y, gen) == x


def test_from_digits_examples():
    assert from_digits((1, 0, 1), WALSH) == 5
    assert from_digits((0, 0, 0), WALSH) == 0
    assert from_digits((1, 2), GeneratorSequence((2, 3))) == 5


def test_cylinder_full_group():
    assert len(cylinder_indices((0, 0, 0), 0, WALSH)) == 8


def test_cylinder_walsh_depth2():
    assert list(cylinder_indices((0, 0, 0), 2, WALSH)) == [0, 4]


def test_cylinder_counting(gen):
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(0, gen.depth + 1))
        x = to_digits(int(rng.integers(gen.size)), gen)
        idx = cylinder_indices(x, n, gen)
        assert len(idx) * gen.scale[n] == gen.size
        # all members agree with x below rank n
        for i in idx[:5]:
            assert to_digits(int(i), gen)[:n] == x[:n]


def test_cylinder_rejects_deep_rank():
    with pytest.raises(ValueError):
        cylinder_indices((0, 0, 0), 4, WALSH)


def test_variation_examples():
    assert variation(5, WALSH) == 4
    assert variation(0, WALSH) == 0


def test_walsh_variation_average_goldens():
    # exact brute-force sums; the running average (1/M_n) sum v equals (n+1)/2
    g = GeneratorSequence.walsh(8)
    sums = {1: 2, 2: 6, 3: 16, 4: 40, 5: 96, 6: 224, 7: 512, 8: 1152}
    for n, expected in sums.items():
        total = sum(variation(l, g) for l in range(1, g.scale[n]))
        assert total == expected
        assert total * 2 == (n + 1) * g.scale[n]


@pytest.mark.parametrize(
    "m", [(2,) * 9, (2, 3, 4, 2, 3), (3,) * 5, (2, 67, 2), (5, 2), ()], ids=str
)
def test_variation_table_matches_variation(m):
    g = GeneratorSequence(m)
    for count in sorted({0, 1, 2, 3, g.size // 2, g.size}):
        if count > g.size:
            continue
        table = variation_table(count, g)
        assert table.tolist() == [variation(l, g) for l in range(count)], count


def test_variation_table_rejects_out_of_range_count():
    with pytest.raises(ValueError, match="count=9"):
        variation_table(9, WALSH)
    with pytest.raises(ValueError, match="count=-1"):
        variation_table(-1, WALSH)


@given(st.integers(min_value=0, max_value=2**18 - 1))
@settings(max_examples=200)
def test_digit_round_trip_walsh_deep(n):
    g = GeneratorSequence.walsh(18)
    assert from_digits(to_digits(n, g), g) == n


def test_digit_sum_bounds(gen):
    """Partial digit sums against the scale factors.

    With maximal digits n_s = m_s - 1 the plain sum telescopes exactly to
    M_{k+1} - 1 and the squared sum stays below M_{k+1}^2 - 1; random
    digit vectors sit below both.
    """
    for k in range(gen.depth):
        maximal = sum((b - 1) * M for b, M in zip(gen.m[: k + 1], gen.scale))
        assert maximal == gen.scale[k + 1] - 1
        squared = sum(
            (b - 1) ** 2 * M**2 for b, M in zip(gen.m[: k + 1], gen.scale)
        )
        assert squared <= gen.scale[k + 1] ** 2 - 1
    rng = np.random.default_rng(5)
    for _ in range(50):
        digits = [int(rng.integers(0, b)) for b in gen.m]
        for k in range(gen.depth):
            plain = sum(d * M for d, M in zip(digits[: k + 1], gen.scale))
            squared = sum(d**2 * M**2 for d, M in zip(digits[: k + 1], gen.scale))
            assert plain <= gen.scale[k + 1] - 1
            assert squared <= gen.scale[k + 1] ** 2 - 1
