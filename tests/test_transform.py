import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin import (
    GeneratorSequence,
    GridFunction,
    SpectralVector,
    conditional_expectation,
    counterexample_martingale,
    cylinder_indices,
    dirichlet,
    fejer_kernel,
    fejer_mean,
    forward_transform,
    from_digits,
    group_sub,
    integrate,
    inverse_transform,
    lebesgue_constant,
    lebesgue_constants,
    lp_quasinorm,
    lp_quasinorm_rows,
    naive_forward_transform,
    partial_sum,
    rademacher,
    sigma_norm_profile,
    strong_sums,
    synthesize,
    to_digits,
    vilenkin_fn,
)
from vilenkin import transform

from vilenkin.transform import (
    _BLOCK_CELLS,
    _axis_pass,
    _char_matrix,
    _digit_runs,
    _run_matrix,
    dirichlet_rows,
    fejer_kernel_rows,
    fejer_mean_blocks,
    fejer_mean_rows,
    partial_sum_rows,
    synthesize_rows,
)

from conftest import random_function

WALSH = GeneratorSequence.walsh(3)


def brute_convolution(f: GridFunction, g: GridFunction) -> GridFunction:
    """(f * g)(x) = integral of f(x - t) g(t) dmu(t), by direct enumeration."""
    gen = f.gen
    out = np.zeros(gen.size, dtype=np.complex128)
    pts = [to_digits(i, gen) for i in range(gen.size)]
    for xi, x in enumerate(pts):
        acc = 0.0 + 0.0j
        for ti, t in enumerate(pts):
            acc += f.values[from_digits(group_sub(x, t, gen), gen)] * g.values[ti]
        out[xi] = acc / gen.size
    return GridFunction(gen, out)


# --- characters --------------------------------------------------------------


def test_rademacher_walsh_signs():
    r0 = rademacher(0, WALSH).values
    assert r0[from_digits((0, 0, 0), WALSH)] == 1.0
    assert r0[from_digits((1, 0, 0), WALSH)] == -1.0
    assert not r0.imag.any()


def test_rademacher_quartic_root():
    g = GeneratorSequence((4, 2))
    r0 = rademacher(0, g).values
    assert [r0[from_digits((x, 0), g)] for x in range(4)] == [1, 1j, -1, -1j]


def test_rademacher_mean_zero_and_unimodular(gen):
    for k in range(gen.depth):
        r = rademacher(k, gen)
        assert abs(np.mean(r.values)) < 1e-12
        assert np.allclose(np.abs(r.values), 1.0)
        assert np.allclose(r.values ** gen.m[k], 1.0)


def test_cached_tables_are_read_only():
    from vilenkin.group import digit_values

    g = GeneratorSequence.walsh(3)
    before = rademacher(0, g).values.copy()
    table = digit_values(g, 0)
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 7
    assert rademacher(0, g).values.tobytes() == before.tobytes()
    assert digit_values(g, 0).tolist() == [0, 1] * 4
    for radices, complex_rows in (((2, 2), False), ((2, 2), True), ((3, 4), False)):
        w = transform._run_matrix(radices, +1, complex_rows)
        with pytest.raises(ValueError, match="read-only"):
            w[0, 0] = 7


def test_rademacher_rejects_deep_rank(gen):
    with pytest.raises(ValueError):
        rademacher(gen.depth, gen)


def test_vilenkin_zeroth_constant(gen):
    assert np.allclose(vilenkin_fn(0, gen).values, 1.0)


def test_vilenkin_walsh_product():
    psi3 = vilenkin_fn(3, WALSH).values
    prod = rademacher(0, WALSH).values * rademacher(1, WALSH).values
    assert np.allclose(psi3, prod)


def test_vilenkin_walsh_characters_are_exactly_real():
    g = GeneratorSequence.walsh(8)
    for n in range(g.size):
        psi = vilenkin_fn(n, g).values
        assert not psi.imag.any(), n
        assert set(psi.real.tolist()) <= {1.0, -1.0}, n


def test_vilenkin_table_product_matches_summed_phase():
    # "summed" is psi_n as np.exp of the summed phase, as it was computed
    # before the exact character tables; its error grows with the phase, up
    # to 7.9e-15 here against np.exp of the phase reduced mod 1, where the
    # table product stays within 1.9e-15 (measured).
    from vilenkin.group import digit_values, to_digits

    g = GeneratorSequence.cycle([2, 3, 4], 5)
    lcm = math.lcm(*g.m)
    for n in range(g.size):
        phase = np.zeros(g.size)
        turns = np.zeros(g.size, dtype=np.int64)  # the phase in units of 1/lcm
        for k, d in enumerate(to_digits(n, g)):
            if d:
                phase += d * digit_values(g, k) / g.m[k]
                turns += d * digit_values(g, k) * (lcm // g.m[k])
        summed = np.exp(2j * np.pi * phase)
        reduced = np.exp(2j * np.pi * (turns % lcm) / lcm)
        psi = vilenkin_fn(n, g).values
        assert np.max(np.abs(psi - summed)) <= 1e-14, n
        assert np.max(np.abs(psi - reduced)) <= 4e-15, n


def test_vilenkin_multiplicative(gen, rng):
    from vilenkin import group_add

    for _ in range(15):
        n = int(rng.integers(gen.size))
        psi = vilenkin_fn(n, gen).values
        xi = int(rng.integers(gen.size))
        yi = int(rng.integers(gen.size))
        x, y = to_digits(xi, gen), to_digits(yi, gen)
        zi = from_digits(group_add(x, y, gen), gen)
        assert psi[zi] == pytest.approx(psi[xi] * psi[yi])


def test_gram_matrix_identity(gen):
    mat = np.stack([vilenkin_fn(n, gen).values for n in range(gen.size)])
    gram = mat @ mat.conj().T / gen.size
    assert np.max(np.abs(gram - np.eye(gen.size))) < 1e-12


# --- transforms --------------------------------------------------------------


def test_transform_of_character_is_unit_vector(gen):
    coeffs = forward_transform(vilenkin_fn(3 % gen.size, gen)).coeffs
    expected = np.zeros(gen.size)
    expected[3 % gen.size] = 1.0
    assert np.max(np.abs(coeffs - expected)) < 1e-12


def test_transform_of_point_mass_is_flat(gen):
    v = np.zeros(gen.size)
    v[0] = gen.size
    coeffs = forward_transform(GridFunction(gen, v)).coeffs
    assert np.max(np.abs(coeffs - 1.0)) < 1e-12


def test_fast_matches_naive(gen, rng):
    f = random_function(gen, rng)
    fast = forward_transform(f).coeffs
    ref = naive_forward_transform(f).coeffs
    assert np.max(np.abs(fast - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


def test_round_trip_depth10():
    g = GeneratorSequence.walsh(10)
    rng = np.random.default_rng(11)
    f = GridFunction(g, rng.normal(size=g.size) + 1j * rng.normal(size=g.size))
    back = inverse_transform(forward_transform(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-10


def test_parseval(gen, rng):
    f = random_function(gen, rng)
    coeffs = forward_transform(f).coeffs
    assert np.sum(np.abs(coeffs) ** 2) == pytest.approx(
        np.mean(np.abs(f.values) ** 2)
    )


def test_convolution_theorem(gen, rng):
    f = random_function(gen, rng)
    g = random_function(gen, rng)
    conv = brute_convolution(f, g)
    lhs = forward_transform(conv).coeffs
    rhs = forward_transform(f).coeffs * forward_transform(g).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-10


# --- the blocked axis pass ----------------------------------------------------

# Runs of digits fuse into matrices of at most _BLOCK_CELLS cells: several
# runs, runs of mixed radices, a radix above the cap on its own, and no
# digits at all.
PASS_GENERATORS = [
    GeneratorSequence.walsh(6),
    GeneratorSequence.walsh(9),
    GeneratorSequence((2, 2, 2, 2, 3, 4)),
    GeneratorSequence.constant(3, 5),
    GeneratorSequence((2, 67, 2)),
    GeneratorSequence(()),
]
PASS_IDS = ["x".join(map(str, g.m)) or "empty" for g in PASS_GENERATORS]


def _exp_table(m, sign):
    jx = np.outer(np.arange(m), np.arange(m))
    return np.exp(sign * 2j * np.pi * jx / m)


@pytest.mark.parametrize("m", [2, 4, 8, 12])
@pytest.mark.parametrize("sign", [-1, +1])
def test_quarter_turn_characters_are_exact(m, sign):
    table = _char_matrix(m, sign)
    turns = [1, 1j, -1, -1j]
    for j in range(m):
        for x in range(m):
            r = j * x % m
            if 4 * r % m == 0:
                assert table[j, x] == turns[sign * (4 * r // m) % 4], (j, x)
            else:  # every other entry keeps the bits of np.exp
                assert table[j, x] == _exp_table(m, sign)[j, x], (j, x)
    assert np.max(np.abs(table - _exp_table(m, sign))) <= 1e-14


@pytest.mark.parametrize("m", [3, 5])
@pytest.mark.parametrize("sign", [-1, +1])
def test_odd_radix_tables_are_the_exp_formula_to_the_bit(m, sign):
    assert _char_matrix(m, sign).tobytes() == _exp_table(m, sign).tobytes()


@pytest.mark.parametrize(
    "g",
    [GeneratorSequence.walsh(10), GeneratorSequence.cycle([2, 4], 6), GeneratorSequence((2, 3, 2))],
    ids=["walsh10", "cycle24x6", "2x3x2"],
)
def test_real_pass_matches_complex_pass(g):
    # On Walsh every run matrix is real and the rows stay float64; on the
    # other two the first run is complex and promotes them.
    rows = np.random.default_rng(g.size).normal(size=(5, g.size))
    for sign in (-1, +1):
        real = _axis_pass(rows, g, sign)
        full = _axis_pass(rows.astype(np.complex128), g, sign)
        assert real.dtype == (np.float64 if set(g.m) == {2} else np.complex128)
        assert np.max(np.abs(real - full)) <= 1e-15 * np.max(np.abs(full))


def _assert_rows_identical_batched_or_alone(values, g):
    for sign in (-1, +1):
        rows = _axis_pass(values, g, sign)
        for i in range(len(values)):
            alone = _axis_pass(values[i], g, sign)
            assert rows[i].tobytes() == alone.tobytes()


@pytest.mark.parametrize("g", PASS_GENERATORS, ids=PASS_IDS)
@pytest.mark.parametrize("batch", [1, 2, 7, 128])
def test_axis_pass_rows_identical_batched_or_alone(g, batch):
    rng = np.random.default_rng(batch)
    values = rng.normal(size=(batch, g.size)) + 1j * rng.normal(size=(batch, g.size))
    _assert_rows_identical_batched_or_alone(values, g)


@pytest.mark.parametrize("g", PASS_GENERATORS, ids=PASS_IDS)
@pytest.mark.parametrize("batch", [1, 2, 7, 128])
def test_axis_pass_real_rows_identical_batched_or_alone(g, batch):
    # float64 rows: real arithmetic on Walsh, promoted at a complex run elsewhere.
    values = np.random.default_rng(batch).normal(size=(batch, g.size))
    _assert_rows_identical_batched_or_alone(values, g)


@pytest.mark.parametrize(
    "m",
    [g.m for g in PASS_GENERATORS]
    + [GeneratorSequence.walsh(22).m, GeneratorSequence.cycle([2, 3, 4], 12).m,
       (5, 7, 2, 64, 3, 11, 3), (40,)],
)
def test_digit_runs_partition_the_radices_in_order(m):
    runs = _digit_runs(m)
    assert tuple(b for run in runs for b in run) == m
    assert math.prod(math.prod(run) for run in runs) == math.prod(m)
    for run in runs:
        assert math.prod(run) <= _BLOCK_CELLS or len(run) == 1


@pytest.mark.parametrize("g", PASS_GENERATORS, ids=PASS_IDS)
def test_blocked_transform_matches_naive(g):
    f = random_function(g, np.random.default_rng(g.size))
    fast = forward_transform(f).coeffs
    ref = naive_forward_transform(f).coeffs
    assert np.max(np.abs(fast - ref)) <= 1e-12


def _fresh_run_chain(values, g, sign):
    """The axis pass as a chain of fresh matmuls, one array per run."""
    lead = values.shape[:-1]
    batch = math.prod(lead)
    arr, post = values, 1
    for radices in _digit_runs(g.m):
        w = _run_matrix(radices, sign, np.iscomplexobj(arr))
        size = w.shape[0]
        pre = g.size // (size * post)
        if post == 1:
            arr = arr.reshape(batch, pre, size) @ w.T
        else:
            arr = w @ arr.reshape(batch, pre, size, post)
        post *= size
    return arr.reshape(lead + (g.size,))


# (grid, rows, dtype, runs applied in place).  The matrices of a run are
# counted as complex or float64 rows against the 64 KiB chunk.
IN_PLACE_CASES = [
    # 24 matrices of 9 KiB, 7 a chunk: a last chunk of 3.
    (GeneratorSequence.cycle([2, 3, 4], 9), (), np.complex128, 1),
    # Two matrices of 512 KiB each, one a chunk; the last run is one matrix.
    (GeneratorSequence.walsh(16), (), np.complex128, 2),
    (GeneratorSequence.walsh(16), (), np.float64, 2),
    # float64 rows: a real run, a promotion at the radix-3 run (fresh), then
    # complex runs in place.
    (GeneratorSequence((2,) * 5 + (3,) * 3 + (2,) * 7), (), np.float64, 1),
    # A batch: the last run holds one matrix per row, so it runs in place.
    (GeneratorSequence.cycle([2, 3, 4], 9), (3,), np.complex128, 2),
    (GeneratorSequence.cycle([2, 3, 4], 9), (2, 2), np.float64, 2),
    # Rows that are columns of an (M_N, 3) array: no input order is assumed.
    (GeneratorSequence.cycle([2, 3, 4], 9), (3,), "transposed", 2),
    # Below the chunk: every run is fresh.
    (GeneratorSequence.cycle([2, 3, 4], 6), (), np.complex128, 0),
    (GeneratorSequence(()), (5,), np.complex128, 0),
]


@pytest.mark.parametrize(
    "g, lead, dtype, in_place", IN_PLACE_CASES,
    ids=["partial-chunk", "matrix-over-chunk", "matrix-over-chunk-real", "promotion",
         "batch", "batch-real", "batch-transposed", "small", "depth0"],
)
def test_in_place_runs_are_byte_equal_to_a_chain_of_fresh_runs(g, lead, dtype, in_place, monkeypatch):
    rng = np.random.default_rng(g.size)
    if dtype == "transposed":
        values = (rng.normal(size=(g.size,) + lead) + 1j * rng.normal(size=(g.size,) + lead)).T
        assert not values.flags.c_contiguous
    else:
        values = rng.normal(size=lead + (g.size,)).astype(dtype)
        if dtype == np.complex128:
            values += 1j * rng.normal(size=values.shape)
    before = values.tobytes()
    calls = []
    run_in_place = transform._matmul_in_place
    monkeypatch.setattr(
        transform, "_matmul_in_place", lambda w, mats: calls.append(1) or run_in_place(w, mats)
    )
    for sign in (-1, +1):
        got = _axis_pass(values, g, sign)
        want = _fresh_run_chain(values, g, sign)
        assert got.dtype == want.dtype and got.shape == values.shape
        assert got.tobytes() == want.tobytes()
        assert values.tobytes() == before
        # At depth 0 there is no run, and the result is the input itself.
        assert np.shares_memory(got, values) == (g.depth == 0)
    assert len(calls) == 2 * in_place


@pytest.mark.parametrize(
    "g",
    [GeneratorSequence.cycle([2, 3, 4], 6), GeneratorSequence.walsh(10), GeneratorSequence(())],
    ids=["cycle234x6", "walsh10", "depth0"],
)
@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["real", "complex"])
def test_forward_transform_scales_its_own_result(g, dtype):
    # The division by M_N is made in place on the pass result: the bytes
    # are those of a fresh division, and f's values are neither written
    # nor shared (at depth 0 there is no run, and M_N = 1 needs none).
    rng = np.random.default_rng(g.size)
    values = rng.normal(size=g.size).astype(dtype)
    if dtype == np.complex128:
        values += 1j * rng.normal(size=g.size)
    f = GridFunction(g, values)
    before = f.values.tobytes()
    coeffs = forward_transform(f).coeffs
    want = np.asarray(_axis_pass(f.values, g, -1) / g.size, dtype=np.complex128)
    assert coeffs.tobytes() == want.tobytes()
    assert f.values.tobytes() == before
    assert np.shares_memory(coeffs, f.values) == (g.depth == 0 and np.iscomplexobj(f.values))


@pytest.mark.parametrize(
    "theta, ranks", [(0.0, [1, 3, 5]), (0.5, [2, 3, 5])], ids=["const", "logpow"]
)
def test_sigma_profile_matches_direct_fejer_means(theta, ranks):
    # Cells of these means vanish exactly, where sqrt magnifies any round-off
    # a batched row picks up over the same row synthesized alone: a batch folded
    # into the matmul rows moves the logpow case by 4e-9.
    g = GeneratorSequence.walsh(6)
    phi = lambda n: max(1.0, math.log(n) ** theta)
    f = counterexample_martingale(phi, ranks, g).function
    profile = sigma_norm_profile(f, g.size)
    for n in range(1, g.size + 1):
        direct = np.sqrt(lp_quasinorm(fejer_mean(f, n), 0.5))
        assert abs(profile[n - 1] - direct) <= 1e-12


# --- batched rows ------------------------------------------------------------

ROW_GENERATORS = [
    GeneratorSequence.walsh(6),
    GeneratorSequence((2, 2, 2, 2, 3, 4)),
    GeneratorSequence.cycle([2, 3, 4], 5),
    GeneratorSequence((2, 67, 2)),
    GeneratorSequence.constant(3, 5),
]
ROW_IDS = ["x".join(map(str, g.m)) for g in ROW_GENERATORS]


def _dirichlet_by_synthesis(n, g):
    return synthesize(g, np.ones(n)).values


def _fejer_by_synthesis(n, g):
    if n == 1:
        return GridFunction.constant(g, 0.0).values
    return synthesize(g, (n - 1 - np.arange(n - 1)) / n).values


@pytest.mark.parametrize("g", ROW_GENERATORS, ids=ROW_IDS)
@pytest.mark.parametrize(
    "rows, single, oracle",
    [(dirichlet_rows, dirichlet, _dirichlet_by_synthesis),
     (fejer_kernel_rows, fejer_kernel, _fejer_by_synthesis)],
    ids=["dirichlet", "fejer"],
)
def test_kernel_rows_byte_equal_to_single_kernels(g, rows, single, oracle):
    # The oracle is the one-row synthesis of the coefficients written out.
    # Rows of a grid whose run matrices are all real (Walsh) are float64, and
    # a GridFunction stores them as complex with imaginary part +0.
    seen = []
    for ns, block in rows(range(1, g.size + 1), g):
        assert block.shape == (ns.size, g.size)
        for n, row in zip(ns.tolist(), block):
            expected = oracle(n, g).tobytes()
            assert row.astype(np.complex128).tobytes() == expected, n
            assert single(n, g).values.tobytes() == expected, n
            seen.append(n)
    assert seen == list(range(1, g.size + 1))


@pytest.mark.parametrize("g, per_block, dtype", [
    (GeneratorSequence((2, 2, 2, 3, 2, 4)), 21, np.complex128),
    (GeneratorSequence.walsh(8), 16, np.float64),
], ids=["2x2x2x3x2x4", "walsh8"])
@pytest.mark.parametrize(
    "rows, single", [(dirichlet_rows, dirichlet), (fejer_kernel_rows, fejer_kernel)],
    ids=["dirichlet", "fejer"],
)
def test_kernel_blocks_across_the_block_boundary(g, per_block, dtype, rows, single):
    # A block holds 64 KiB of rows counted as complex: two whole blocks, then
    # the start of a third, each row byte-equal to its kernel alone.
    blocks = list(rows(range(1, 2 * per_block + 4), g))
    assert [ns.size for ns, _ in blocks] == [per_block, per_block, 3]
    for ns, block in blocks:
        assert block.dtype == dtype
        for n, row in zip(ns.tolist(), block):
            assert row.astype(np.complex128).tobytes() == single(n, g).values.tobytes(), n


def test_kernel_rows_keep_order_and_validate_eagerly():
    g = GeneratorSequence.walsh(4)
    ns = [5, 1, 16, 5]
    got = [n for block, _ in fejer_kernel_rows(ns, g) for n in block.tolist()]
    assert got == ns
    for bad in ([0], [3, 17]):
        with pytest.raises(ValueError, match=f"n={bad[-1]} out of range"):
            dirichlet_rows(bad, g)  # refused before the first block is asked for
    assert list(dirichlet_rows([], g)) == []


def test_fejer_mean_blocks_keep_order_and_validate_eagerly():
    g = GeneratorSequence.walsh(9)
    coeffs = forward_transform(random_function(g, np.random.default_rng(2))).coeffs
    ks = [300, 1, 129, 130, 512, 2]
    blocks = list(fejer_mean_blocks(coeffs, ks, g, 1 << 20))
    assert [(block.tolist(), grid.size) for block, grid, _ in blocks] == [
        ([300], 512), ([1, 129], 128), ([130], 256), ([512], 512), ([2], 128)]
    for block, grid, rows in blocks:
        assert rows.shape == (block.size, grid.size)
    with pytest.raises(ValueError, match="n=513 out of range"):
        fejer_mean_blocks(coeffs, [1, 513], g, 1 << 20)  # before any block
    with pytest.raises(ValueError, match=r"expected 512 coefficients, got shape \(128,\)"):
        fejer_mean_blocks(coeffs[:128], [1], g, 1 << 20)
    assert list(fejer_mean_blocks(coeffs, [], g, 1 << 20)) == []


@st.composite
def row_cases(draw):
    """A grid of radices 2-7 with M_N <= 4096, a real or complex spectrum on
    it, a few orders (scales and their neighbours likely) and a block size."""
    depth = draw(st.integers(0, 12))
    radix = st.just(2) if draw(st.booleans()) else st.integers(2, 7)  # Walsh half the time
    m = []
    for base in draw(st.lists(radix, min_size=depth, max_size=depth)):
        if math.prod(m) * base > 4096:
            break
        m.append(base)
    g = GeneratorSequence(tuple(m))
    near_scales = [n for M in g.scale for n in (M - 1, M, M + 1) if 1 <= n <= g.size]
    order = st.one_of(st.integers(1, g.size), st.sampled_from(near_scales))
    ns = draw(st.lists(order, min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.standard_normal(g.size)
    if not draw(st.booleans()):
        coeffs = coeffs + 1j * rng.standard_normal(g.size)
    return g, coeffs, ns, draw(st.sampled_from([0, 1 << 12, 1 << 16]))


def _real_runs(g):
    return all(_run_matrix(r, +1, False).dtype == np.float64 for r in _digit_runs(g.m))


@given(row_cases())
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
def test_row_paths_agree_on_drawn_grids(case):
    # Every row _row_blocks makes, blocked or single, on a coarse grid or
    # the full one, against the single entries and the full-grid rows.
    g, coeffs, ns, block_bytes = case
    f = synthesize(g, coeffs)
    spectrum = forward_transform(f).coeffs
    for rows, single in [(dirichlet_rows, dirichlet), (fejer_kernel_rows, fejer_kernel)]:
        got = [(n, row) for block, batch in rows(ns, g) for n, row in zip(block.tolist(), batch)]
        assert [n for n, _ in got] == ns
        for n, row in got:
            assert row.astype(np.complex128).tobytes() == single(n, g).values.tobytes(), n
    assert lebesgue_constants(ns, g).tolist() == [lebesgue_constant(n, g) for n in ns]
    # Blocked means, tiled from their grids, against the single mean; real
    # data stays real where the grid's runs allow.
    seen = []
    for block, grid, batch in fejer_mean_blocks(spectrum, ns, g, block_bytes):
        assert (batch.dtype == np.float64) == (np.isrealobj(coeffs) and _real_runs(grid))
        for n, row in zip(block.tolist(), batch):
            tiled = np.tile(row, g.size // grid.size).astype(np.complex128)
            assert tiled.tobytes() == fejer_mean(f, n).values.tobytes(), n
            seen.append(n)
    assert seen == ns
    # Coarse single rows against the full grid: bits, except real spectra
    # on grids whose run matrices are all real, within 1e-15 of max|row|.
    exact = not (_real_runs(g) and np.isrealobj(coeffs))
    coarse = [fejer_mean(f, n).values for n in ns]
    full = fejer_mean_rows(spectrum, ns, g).astype(np.complex128)
    off_scales = [n for n in ns if n not in g.scale]
    coarse += [partial_sum(f, n).values for n in off_scales]
    full = np.concatenate([full, partial_sum_rows(spectrum, off_scales, g)])
    for n, got, want in zip(ns + off_scales, coarse, full):
        if exact:
            assert got.tobytes() == want.tobytes(), n
        else:
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), n


NON_INTEGER_ORDERS = [2.5, math.nan, math.inf]


@pytest.mark.parametrize("n", NON_INTEGER_ORDERS)
@pytest.mark.parametrize(
    "entry",
    [
        lambda f, n: dirichlet_rows([1, n], f.gen),
        lambda f, n: fejer_mean_rows(forward_transform(f).coeffs, [1, n], f.gen),
        lambda f, n: fejer_mean_blocks(forward_transform(f).coeffs, [1, n], f.gen, 1 << 20),
        lambda f, n: partial_sum_rows(forward_transform(f).coeffs, [1, n], f.gen),
        lambda f, n: dirichlet(n, f.gen),
        lambda f, n: fejer_kernel(n, f.gen),
        lambda f, n: fejer_mean(f, n),
        lambda f, n: partial_sum(f, n),
    ],
    ids=["dirichlet_rows", "fejer_mean_rows", "fejer_mean_blocks", "partial_sum_rows",
         "dirichlet", "fejer_kernel", "fejer_mean", "partial_sum"],
)
def test_order_entry_points_refuse_non_integer_orders(entry, n):
    # The row forms truncated these orders to int, so 2.5 gave the rows of
    # n = 2; the single forms raised a TypeError for 2.5.
    f = random_function(GeneratorSequence.walsh(4), np.random.default_rng(4))
    with pytest.raises(ValueError, match=f"n={n} is not an integer"):
        entry(f, n)


@pytest.mark.parametrize("n", NON_INTEGER_ORDERS)
def test_sigma_norm_profile_refuses_non_integer_nmax(n):
    f = random_function(GeneratorSequence.walsh(4), np.random.default_rng(4))
    with pytest.raises(ValueError, match=f"nmax={n}"):
        sigma_norm_profile(f, n)


@pytest.mark.parametrize("g", PASS_GENERATORS, ids=PASS_IDS)
def test_synthesize_rows_matches_inverse_transform(g):
    rng = np.random.default_rng(g.size)
    coeffs = rng.normal(size=(3, 2, g.size)) + 1j * rng.normal(size=(3, 2, g.size))
    rows = synthesize_rows(coeffs, g)
    assert rows.shape == coeffs.shape
    for idx in np.ndindex(3, 2):
        alone = inverse_transform(SpectralVector(g, coeffs[idx])).values
        assert rows[idx].tobytes() == alone.tobytes()
    with pytest.raises(ValueError):
        synthesize_rows(np.ones(g.size + 1), g)


def test_synthesize_zero_pads_short_vectors_and_refuses_long_ones():
    g = GeneratorSequence.walsh(3)
    padded = synthesize(g, [1.0, 2.0]).values
    assert padded.tobytes() == synthesize(g, [1.0, 2.0] + [0.0] * 6).values.tobytes()
    with pytest.raises(ValueError, match=r"M_N=8 coefficients, got shape \(9,\)"):
        synthesize(g, np.ones(9))


def _assert_fejer_mean_rows_byte_equal_to_fejer_mean(f):
    g = f.gen
    coeffs = forward_transform(f).coeffs
    ks = np.arange(1, g.size + 1)
    rows = fejer_mean_rows(coeffs, ks, g)
    for k in ks:
        row = rows[k - 1].astype(np.complex128)
        assert row.tobytes() == fejer_mean(f, int(k)).values.tobytes()
    return rows


@pytest.mark.parametrize(
    "g", [GeneratorSequence.cycle([2, 3, 4], 4), GeneratorSequence.constant(3, 5)],
    ids=["cycle234x4", "3x5"],
)
def test_fejer_mean_rows_byte_equal_to_fejer_mean(g):
    f = random_function(g, np.random.default_rng(3))
    _assert_fejer_mean_rows_byte_equal_to_fejer_mean(f)


def test_fejer_means_of_a_real_walsh_spectrum_take_the_same_float64_pass():
    # A real function on a Walsh grid has a spectrum with imaginary part
    # exactly 0: the rows and the single mean both synthesize its real part.
    g = GeneratorSequence.walsh(6)
    f = GridFunction(g, np.random.default_rng(3).normal(size=g.size))
    assert _assert_fejer_mean_rows_byte_equal_to_fejer_mean(f).dtype == np.float64


PARTIAL_SUM_GENERATORS = [
    GeneratorSequence.walsh(5), GeneratorSequence.cycle([2, 3, 4], 3), GeneratorSequence((2, 67)),
]
PARTIAL_SUM_IDS = ["walsh5", "cycle234x3", "2,67"]


@pytest.mark.parametrize("g", PARTIAL_SUM_GENERATORS, ids=PARTIAL_SUM_IDS)
def test_partial_sum_rows_byte_equal_to_truncated_spectrum(g):
    # Multiplying the dropped coefficients by 0 would give -0.0 wherever a
    # part is negative, which can change the signs of zeros in a row.
    f = GridFunction(g, np.random.default_rng(1).standard_normal(g.size))
    coeffs = forward_transform(f).coeffs
    ns = np.arange(g.size + 1)
    rows = partial_sum_rows(coeffs, ns, g)
    for n in ns:
        kept = coeffs.copy()
        kept[n:] = 0.0
        oracle = inverse_transform(SpectralVector(g, kept)).values
        if n == 0:
            # S_0 f = 0 is +0, with no sign bit, where the synthesis of the
            # zero spectrum leaves -0.0 on 2,67.
            oracle = np.zeros_like(oracle)
        assert rows[n].tobytes() == oracle.tobytes()
        single = partial_sum(f, int(n)).values
        if n in g.scale:
            # Paley's lemma: S_{M_r} f is the cylinder mean E_r f, which
            # agrees with the synthesis up to round-off.
            mean = conditional_expectation(f, g.scale.index(n)).values
            assert single.tobytes() == mean.tobytes()
            assert np.max(np.abs(single - oracle)) <= 1e-13 * np.max(np.abs(oracle))
        else:
            assert single.tobytes() == oracle.tobytes()
    for bad in ([-1], [2, g.size + 1]):
        with pytest.raises(ValueError, match=f"n={bad[-1]} out of range"):
            partial_sum_rows(coeffs, bad, g)


@pytest.mark.parametrize("g", PARTIAL_SUM_GENERATORS, ids=PARTIAL_SUM_IDS)
def test_partial_sum_at_the_top_scale_is_f_and_at_one_the_mean(g):
    f = random_function(g, np.random.default_rng(2))
    assert partial_sum(f, g.size).values.tobytes() == f.values.tobytes()
    mean = partial_sum(f, 1).values
    assert np.all(mean == mean[0])
    assert abs(mean[0] - integrate(f)) <= 1e-13 * abs(integrate(f))


@pytest.mark.parametrize("g", PARTIAL_SUM_GENERATORS, ids=PARTIAL_SUM_IDS)
def test_partial_sum_at_a_scale_makes_no_transform(g, monkeypatch):
    f = random_function(g, np.random.default_rng(3))

    def refuse(_):
        raise AssertionError("forward_transform called")

    monkeypatch.setattr("vilenkin.transform.forward_transform", refuse)
    for r, M in enumerate(g.scale):
        mean = conditional_expectation(f, r).values
        assert partial_sum(f, M).values.tobytes() == mean.tobytes()
    with pytest.raises(AssertionError, match="forward_transform called"):
        partial_sum(f, 3)


@pytest.mark.parametrize("hardy", [False, True], ids=["plain", "hardy"])
def test_sigma_profile_bit_identical_to_clipped_weights_oracle(hardy):
    # The weights as sigma_norm_profile wrote them before the shared builder.
    from vilenkin.hardy import _maximal_abs

    g = GeneratorSequence.walsh(6)
    f = counterexample_martingale(lambda n: max(1.0, math.log(n) ** 0.5), [2, 3, 5], g).function
    coeffs = forward_transform(f).coeffs
    # A real function on a Walsh grid has a spectrum with imaginary part
    # exactly 0, and the profile synthesizes its real part in float64.
    assert not coeffs.imag.any()
    ks = np.arange(1, g.size + 1)
    j = np.arange(g.size)
    weights = np.clip((ks[:, None] - 1 - j[None, :]) / ks[:, None], 0.0, None)
    block = _axis_pass(weights * coeffs.real[None, :], g, +1)
    star = _maximal_abs(block, g) if hardy else np.abs(block)
    expected = np.mean(np.sqrt(star), axis=-1)
    assert sigma_norm_profile(f, g.size, hardy=hardy).tobytes() == expected.tobytes()


# --- kernels -----------------------------------------------------------------


def test_dirichlet_one_is_constant(gen):
    assert np.allclose(dirichlet(1, gen).values, 1.0)


def test_dirichlet_matches_character_sum(gen):
    for n in range(1, gen.size + 1):
        ref = np.sum([vilenkin_fn(k, gen).values for k in range(n)], axis=0)
        assert np.max(np.abs(dirichlet(n, gen).values - ref)) < 1e-10


def test_dirichlet_at_scale_walsh():
    d4 = dirichlet(4, WALSH).values
    inside = cylinder_indices((0, 0, 0), 2, WALSH)
    assert np.allclose(d4[inside], 4.0)
    outside = np.setdiff1d(np.arange(8), inside)
    assert np.max(np.abs(d4[outside])) < 1e-12


def test_dirichlet_three_hand_values():
    d3 = dirichlet(3, WALSH).values
    cells = {(0, 0): 3, (0, 1): 1, (1, 0): 1, (1, 1): -1}
    for (x0, x1), expected in cells.items():
        assert d3[from_digits((x0, x1, 0), WALSH)] == pytest.approx(expected)


def test_dirichlet_range_validation(gen):
    with pytest.raises(ValueError):
        dirichlet(0, gen)
    with pytest.raises(ValueError):
        dirichlet(gen.size + 1, gen)


def test_fejer_kernel_base_cases(gen):
    assert np.allclose(fejer_kernel(1, gen).values, 0.0)
    if gen.m[0] == 2:
        assert np.allclose(fejer_kernel(2, WALSH).values, 0.5)


def test_fejer_kernel_matches_dirichlet_average(gen):
    for n in range(1, gen.size + 1):
        ref = np.zeros(gen.size, dtype=np.complex128)
        for k in range(1, n):  # D_0 = 0
            ref += dirichlet(k, gen).values
        ref /= n
        assert np.max(np.abs(fejer_kernel(n, gen).values - ref)) < 1e-10


def test_fejer_kernel_telescoping_walsh():
    lhs = 5 * fejer_kernel(5, WALSH).values
    rhs = 4 * fejer_kernel(4, WALSH).values + dirichlet(4, WALSH).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# --- partial sums and Fejer means -------------------------------------------


def test_partial_sum_conventions(gen, rng):
    f = random_function(gen, rng)
    assert np.allclose(partial_sum(f, 0).values, 0.0)
    assert np.max(np.abs(partial_sum(f, gen.size).values - f.values)) < 1e-10


def test_partial_sum_spectral_truncation():
    f = vilenkin_fn(3, WALSH)
    assert np.max(np.abs(partial_sum(f, 3).values)) < 1e-12
    assert np.max(np.abs(partial_sum(f, 4).values - f.values)) < 1e-12


def test_fejer_mean_of_constant(gen):
    f = vilenkin_fn(0, gen)
    for n in range(1, gen.size + 1):
        assert np.allclose(fejer_mean(f, n).values, (n - 1) / n)


def test_fejer_mean_first_is_zero(gen, rng):
    f = random_function(gen, rng)
    assert np.allclose(fejer_mean(f, 1).values, 0.0)


# The bench's large_grid: M_N = 165 888 cells, M_{N-1} = 82 944.
LARGE_GRID = GeneratorSequence((2, 3, 4, 2, 3, 4, 2, 3, 4, 2, 3, 2))


def _fft_multiplier(values, n, m, *, fejer):
    """sigma_n f (with ``fejer``) or S_n f by np.fft over the digit axes."""
    shape = tuple(reversed(m))
    coeffs = np.fft.fftn(values.reshape(shape)).reshape(-1) / values.size
    j = np.arange(values.size)
    weights = np.clip((n - 1 - j) / n, 0.0, None) if fejer else j < n
    return np.fft.ifftn((weights * coeffs).reshape(shape)).reshape(-1) * values.size


def test_single_means_off_the_scales_match_an_fft_oracle():
    # None of these orders is a scale: S_n f is a synthesis, on the coarse
    # grid m[:r] below n <= M_{N-1} and on the full grid above it.
    g = LARGE_GRID
    f = random_function(g, np.random.default_rng(6))
    top = np.max(np.abs(f.values))
    for n in (0, 5, 1000, g.scale[-2] - 1, g.scale[-2] + 1, g.size - 1):
        want = _fft_multiplier(f.values, n, g.m, fejer=False)
        assert np.max(np.abs(partial_sum(f, n).values - want)) <= 1e-12 * top, n
    for n in (2, 1000, g.scale[-2] + 1, g.scale[-2] + 2, g.size):
        want = _fft_multiplier(f.values, n, g.m, fejer=True)
        assert np.max(np.abs(fejer_mean(f, n).values - want)) <= 1e-12 * top, n


@pytest.mark.parametrize(
    "g", [GeneratorSequence.cycle([2, 3, 4], 9), GeneratorSequence.constant(3, 7)],
    ids=["cycle234x9", "3x7"],
)
def test_coarse_single_means_are_byte_equal_to_the_full_grid_rows(g):
    f = random_function(g, np.random.default_rng(4))
    coeffs = forward_transform(f).coeffs
    ks = [1, 2, 100, g.scale[-2], g.scale[-2] + 1, g.scale[-2] + 2, g.size]
    for k, row in zip(ks, fejer_mean_rows(coeffs, ks, g)):
        assert fejer_mean(f, k).values.tobytes() == row.tobytes(), k
    ns = [0, 5, 100, g.scale[-2] - 1, g.scale[-2] + 1]  # no scale
    for n, row in zip(ns, partial_sum_rows(coeffs, ns, g)):
        assert partial_sum(f, n).values.tobytes() == row.tobytes(), n


def test_coarse_fejer_means_of_a_real_walsh_function_move_in_the_last_bits():
    # A real Walsh row is a float64 matmul whose last bits depend on the
    # grid: on Walsh(12) half the coarse means move, by up to 7.3e-16
    # relative over three random functions.
    g = GeneratorSequence.walsh(12)
    f = GridFunction(g, np.random.default_rng(3).normal(size=g.size))
    ks = [2, 150, 1000, g.scale[-2] + 1, g.size]
    rows = fejer_mean_rows(forward_transform(f).coeffs, ks, g)
    for k, row in zip(ks, rows):
        assert np.max(np.abs(fejer_mean(f, k).values - row)) <= 1e-15 * np.max(np.abs(row))


def test_a_coarse_fejer_mean_peaks_below_two_grids():
    # sigma_n f with n - 1 < M_{N-1} lies on the 82 944 cells of m[:N-1]:
    # its synthesis holds half-grid arrays, and the one full grid is the
    # tiled result (3.0 grids when it was synthesized on the full grid).
    g = LARGE_GRID
    f = random_function(g, np.random.default_rng(5))
    n = g.scale[-2]
    fejer_mean(f, n)  # the spectrum is kept on f, and the prefix grid built
    tracemalloc.start()
    try:
        fejer_mean(f, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 16 * g.size


@pytest.mark.parametrize(
    "g", [GeneratorSequence.constant(3, 5), GeneratorSequence((2, 67, 2))],
    ids=["3x5", "2x67x2"],
)
def test_sigma_1_and_k_1_are_positive_zero(g):
    # The synthesis of a zero row leaves -0.0 on these grids (11 cells of
    # fejer_mean(f, 1) on 3^5); S_0 f = K_1 = sigma_1 f = 0 carries no sign bit.
    f = random_function(g, np.random.default_rng(1))
    coeffs = forward_transform(f).coeffs
    zeros = [
        fejer_mean(f, 1).values,
        fejer_mean_rows(coeffs, [1, 2], g)[0],
        fejer_kernel(1, g).values,
        next(fejer_kernel_rows([1, 2], g))[1][0],
        partial_sum(f, 0).values,
        partial_sum_rows(coeffs, [0, 1], g)[0],
    ]
    for row in zeros:
        assert not np.signbit(row.real).any() and not np.signbit(np.imag(row)).any()
        assert not row.any()


def test_fejer_mean_matches_average_of_partial_sums(gen, rng):
    f = random_function(gen, rng)
    for n in (1, 2, 3, gen.size // 2, gen.size):
        ref = np.zeros(gen.size, dtype=np.complex128)
        for k in range(n):
            ref += partial_sum(f, k).values
        ref /= n
        assert np.max(np.abs(fejer_mean(f, n).values - ref)) < 1e-10


def test_fejer_mean_is_kernel_convolution(gen, rng):
    f = random_function(gen, rng)
    for n in (2, 3, 5):
        conv = brute_convolution(f, fejer_kernel(n, gen))
        assert np.max(np.abs(fejer_mean(f, n).values - conv.values)) < 1e-10


# --- Lebesgue constants ------------------------------------------------------


def test_lebesgue_at_scales(gen):
    for n in range(gen.depth + 1):
        assert lebesgue_constant(gen.scale[n], gen) == pytest.approx(1.0)


def test_lebesgue_walsh_hand_values():
    assert lebesgue_constant(2, WALSH) == pytest.approx(1.0)
    assert lebesgue_constant(3, WALSH) == pytest.approx(1.5)


def lebesgue_orders(g):
    """Every order up to 130, and the orders around each rank boundary above."""
    ns = set(range(1, min(g.size, 130) + 1))
    for M in g.scale[1:]:
        ns.update(n for n in range(M - 2, M + 3) if 1 <= n <= g.size)
    return sorted(ns)


def full_grid_lebesgue(ns, g):
    return np.concatenate([lp_quasinorm_rows(rows, 1.0) for _, rows in dirichlet_rows(ns, g)])


@pytest.mark.parametrize("g", [GeneratorSequence.walsh(9), GeneratorSequence.walsh(12)],
                         ids=["walsh9", "walsh12"])
def test_coarse_lebesgue_constants_are_byte_equal_to_the_full_grid_on_walsh(g):
    ns = lebesgue_orders(g)
    assert lebesgue_constants(ns, g).tobytes() == full_grid_lebesgue(ns, g).tobytes()


@pytest.mark.parametrize(
    "g", [GeneratorSequence.constant(3, 7), GeneratorSequence.cycle([2, 3, 4], 9)],
    ids=["3^7", "cycle234x9"],
)
def test_coarse_lebesgue_constants_agree_with_the_full_grid(g):
    ns = lebesgue_orders(g)
    got = lebesgue_constants(ns, g)
    assert np.all(np.abs(got - full_grid_lebesgue(ns, g)) <= 1e-15 * got)
    # Each order's grid depends on the order alone: alone, reversed or in
    # any block, L_n has the same bits.
    assert lebesgue_constants(ns[::-1], g).tobytes() == got[::-1].tobytes()
    assert [lebesgue_constant(n, g) for n in ns] == got.tolist()


def test_walsh20_lebesgue_constants_take_coarse_rows():
    # On the full grid this is 64 rows of 2^20 cells (0.6 s); each row of
    # D_n, n <= 64, lies on the 128 cells of Walsh(7).
    g = GeneratorSequence.walsh(20)
    lebesgue_constants(range(1, 65), g)  # builds the prefix grids once
    tracemalloc.start()
    try:
        got = lebesgue_constants(range(1, 65), g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == full_grid_lebesgue(range(1, 65), GeneratorSequence.walsh(7)).tobytes()
    # The all-ones spectrum stops at the 128 cells of the largest row's grid:
    # on all 2^20 cells it alone was 8 MiB.
    assert peak < 1 << 18


def fejer_weights(coeffs, ns, g, monkeypatch):
    """The weighted coefficients the core hands to the synthesis."""
    seen = []
    synthesis = transform._axis_pass

    def spy(values, gen, sign):
        seen.append(values.copy())
        return synthesis(values, gen, sign)

    monkeypatch.setattr(transform, "_axis_pass", spy)
    fejer_mean_rows(coeffs, ns, g)
    monkeypatch.setattr(transform, "_axis_pass", synthesis)
    return seen[0]


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_ramp_weights_are_byte_equal_to_clipped_integer_weights(monkeypatch, real):
    g = GeneratorSequence.walsh(6)
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=g.size) - 0.5
    if not real:
        coeffs = coeffs + 1j * rng.normal(size=g.size)
    coeffs[[5, 40, 63]] = -1.0  # negative under a zero weight of every row below
    for ns in (np.arange(20, 37), np.arange(1, 65), np.array([3]), np.array([9, 4, 30, 17])):
        k = ns[:, None]
        expected = np.maximum(k - 1 - np.arange(g.size), 0) / k * coeffs
        got = fejer_weights(coeffs, ns, g, monkeypatch)
        assert got.tobytes() == expected.tobytes()
        assert np.signbit(got.real[:, 63]).all()  # 0 * -1.0
    consecutive = fejer_weights(coeffs, np.arange(20, 37), g, monkeypatch)
    shuffled = fejer_weights(coeffs, np.arange(36, 19, -1), g, monkeypatch)
    assert shuffled.tobytes() == consecutive[::-1].tobytes()


def test_spectral_vector_validation():
    with pytest.raises(ValueError):
        SpectralVector(WALSH, np.ones(3))


# --- the kept spectrum -------------------------------------------------------


MEMO_GENERATORS = [GeneratorSequence.walsh(6), GeneratorSequence.cycle([2, 3, 4], 5)]
MEMO_IDS = ["walsh6", "cycle234x5"]


def count_axis_passes(monkeypatch):
    calls = []
    axis_pass = transform._axis_pass

    def counted(values, gen, sign):
        calls.append(sign)
        return axis_pass(values, gen, sign)

    monkeypatch.setattr(transform, "_axis_pass", counted)
    return calls


@pytest.mark.parametrize("g", MEMO_GENERATORS, ids=MEMO_IDS)
def test_forward_transform_is_kept_on_its_function(g):
    f = random_function(g, np.random.default_rng(5))
    spec = forward_transform(f)
    assert forward_transform(f) is spec
    # A function built on the same values is a new function: analysed anew.
    other = GridFunction(g, f.values)
    assert forward_transform(other) is not spec
    assert forward_transform(other).coeffs.tobytes() == spec.coeffs.tobytes()


def test_fejer_mean_reuses_the_kept_spectrum(monkeypatch):
    g = GeneratorSequence.cycle([2, 3, 4], 5)
    calls = count_axis_passes(monkeypatch)
    cold = random_function(g, np.random.default_rng(6))
    fejer_mean(cold, 100)
    assert len(calls) == 2
    warm = random_function(g, np.random.default_rng(6))
    forward_transform(warm)
    calls.clear()
    fejer_mean(warm, 100)
    assert calls == [+1]
    fejer_mean(warm, 37)
    partial_sum(warm, 37)
    assert calls == [+1, +1, +1]


WARM_COLD_OPERATIONS = {
    "fejer_mean": lambda f: fejer_mean(f, f.gen.size // 2 + 1).values,
    "partial_sum": lambda f: partial_sum(f, f.gen.size // 2 + 1).values,
    "sigma_norm_profile": lambda f: sigma_norm_profile(f, f.gen.size),
    "sigma_norm_profile_hardy": lambda f: sigma_norm_profile(f, f.gen.size, hardy=True),
    "simon": lambda f: np.float64(strong_sums(f, f.gen.size, mode="simon")),
    "gat": lambda f: np.float64(strong_sums(f, f.gen.size, mode="gat")),
}


@pytest.mark.parametrize("op", WARM_COLD_OPERATIONS)
@pytest.mark.parametrize("g", MEMO_GENERATORS, ids=MEMO_IDS)
def test_warm_and_cold_results_byte_identical(g, op):
    f = random_function(g, np.random.default_rng(7))
    forward_transform(f)
    cold = GridFunction(g, f.values.copy())
    assert cold._spectrum is None
    run = WARM_COLD_OPERATIONS[op]
    assert run(f).tobytes() == run(cold).tobytes()


@pytest.mark.parametrize("g", MEMO_GENERATORS, ids=MEMO_IDS)
def test_a_synthesized_function_keeps_its_exact_spectrum(g, monkeypatch):
    rng = np.random.default_rng(8)
    cases = [rng.normal(size=g.size // 3), rng.normal(size=7) + 1j * rng.normal(size=7),
             np.array([1.0, -0.0, 2.0, -0.0])]
    made = [synthesize(g, c) for c in cases]
    calls = count_axis_passes(monkeypatch)
    for c, f in zip(cases, made):
        padded = np.zeros(g.size, dtype=np.complex128)
        padded[: len(c)] = c
        assert forward_transform(f).coeffs.tobytes() == padded.tobytes()
    assert calls == []  # no analysis pass
    spec = SpectralVector(g, rng.normal(size=g.size) + 1j * rng.normal(size=g.size))
    assert forward_transform(inverse_transform(spec)) is spec


@pytest.mark.parametrize("op", WARM_COLD_OPERATIONS)
@pytest.mark.parametrize("g", MEMO_GENERATORS, ids=MEMO_IDS)
def test_synthesized_and_analysed_results_agree(g, op):
    # The kept spectrum has exact zeros where an analysis of the same values
    # leaves round-off, so the two agree closely but not to the bit.
    rng = np.random.default_rng(9)
    f = synthesize(g, rng.normal(size=g.size // 3) + 1j * rng.normal(size=g.size // 3))
    analysed = GridFunction(g, f.values)
    run = WARM_COLD_OPERATIONS[op]
    kept, fresh = run(f), run(analysed)
    assert np.max(np.abs(kept - fresh)) <= 1e-12 * np.max(np.abs(fresh))


def test_grid_function_values_are_read_only():
    f = random_function(WALSH, np.random.default_rng(8))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_repr_and_equality_ignore_the_kept_spectrum():
    f = random_function(WALSH, np.random.default_rng(9))
    same = GridFunction(WALSH, f.values)
    text = repr(f)
    assert f == same
    forward_transform(f)
    assert repr(f) == text == repr(same)
    assert f == same and same == f
