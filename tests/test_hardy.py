import math
import tracemalloc

import numpy as np
import pytest

from vilenkin import (
    GeneratorSequence,
    GridFunction,
    conditional_expectation,
    counterexample_martingale,
    dirichlet,
    fejer_kernel,
    fejer_mean,
    forward_transform,
    function_hardy_quasinorm,
    integrate,
    is_p_atom,
    lp_quasinorm,
    maximal_function,
    partial_sum,
    rademacher,
    select_alphas,
    sigma_norm_profile,
    strong_sums,
    synthesize,
    variation,
    vilenkin_fn,
)
from vilenkin import hardy
from vilenkin.hardy import partial_sum_norm_profile
from vilenkin.transform import fejer_mean_rows, partial_sum_rows

from conftest import random_function

WALSH = GeneratorSequence.walsh(3)
ONE = lambda n: 1.0  # noqa: E731


# --- conditional expectation -------------------------------------------------


def test_conditional_expectation_endpoints(gen, rng):
    f = random_function(gen, rng)
    e0 = conditional_expectation(f, 0)
    assert np.allclose(e0.values, integrate(f))
    assert np.allclose(conditional_expectation(f, gen.depth).values, f.values)


def test_conditional_expectation_of_rademacher():
    r0 = rademacher(0, WALSH)
    assert np.max(np.abs(conditional_expectation(r0, 0).values)) < 1e-12
    for n in (1, 2, 3):
        assert np.allclose(conditional_expectation(r0, n).values, r0.values)


def test_conditional_expectation_matches_partial_sum_at_scales(gen, rng):
    for _ in range(5):
        f = random_function(gen, rng)
        # The synthesis, not partial_sum, which takes this very mean.
        coeffs = forward_transform(f).coeffs
        for n in range(gen.depth + 1):
            lhs = conditional_expectation(f, n).values
            rhs = partial_sum_rows(coeffs, [gen.scale[n]], gen)[0]
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_conditional_expectation_rejects_deep_rank(gen):
    with pytest.raises(ValueError):
        conditional_expectation(GridFunction.constant(gen, 1.0), gen.depth + 1)


# --- martingales and Hardy quasi-norms --------------------------------------


def test_conditional_expectations_form_a_martingale(gen, rng):
    # the levels E_n f are adapted and satisfy the tower property
    f = random_function(gen, rng)
    for n in range(gen.depth + 1):
        level = conditional_expectation(f, n).values
        cells = level.reshape(gen.size // gen.scale[n], gen.scale[n])
        assert np.max(np.abs(cells - cells[0])) < 1e-12
        if n < gen.depth:
            finer = conditional_expectation(f, n + 1)
            tower = conditional_expectation(finer, n).values
            assert np.max(np.abs(tower - level)) < 1e-12


def test_maximal_function_character():
    f = vilenkin_fn(1, WALSH)
    assert np.allclose(maximal_function(f).values, 1.0)
    for p in (0.5, 1.0, 2.0):
        assert function_hardy_quasinorm(f, p) == pytest.approx(1.0)


def test_constant_martingale_norm(gen):
    f = GridFunction.constant(gen, -2.0)
    assert function_hardy_quasinorm(f, 0.5) == pytest.approx(2.0)


def test_maximal_dominates_last_level(gen, rng):
    f = random_function(gen, rng)
    assert np.all(maximal_function(f).values >= np.abs(f.values) - 1e-12)


def test_maximal_matches_cylinder_average_form(gen, rng):
    # f* is the sup of |cylinder averages of f|
    f = random_function(gen, rng)
    star = maximal_function(f).values
    ref = np.zeros(gen.size)
    for n in range(gen.depth + 1):
        ref = np.maximum(ref, np.abs(conditional_expectation(f, n).values))
    assert np.max(np.abs(star - ref)) < 1e-12


def _maximal_abs_per_rank(values, gen):
    """The maximal function as one full reshape-mean and one full maximum per
    rank, O(N * M_N) per row: the oracle for the coarse-to-fine pass."""
    lead = values.shape[:-1]
    star = np.abs(values)
    for n in range(gen.depth):
        shape = lead + (gen.size // gen.scale[n], gen.scale[n])
        view = star.reshape(shape)
        mean = values.reshape(shape).mean(axis=-2, keepdims=True)
        np.maximum(view, np.abs(mean), out=view)
    return star


MAXIMAL_GENERATORS = [
    GeneratorSequence.walsh(9),
    GeneratorSequence.cycle([2, 3, 4], 7),
    GeneratorSequence((2, 67, 2)),
    GeneratorSequence((5,)),
    GeneratorSequence(()),
]
MAXIMAL_IDS = ["x".join(map(str, g.m)) or "empty" for g in MAXIMAL_GENERATORS]


def random_rows(g, batch, seed):
    # A mean of about 2 per row makes the coarse averages the maximum on
    # many cells; without it the finest ranks nearly always win.
    rng = np.random.default_rng(seed)
    shape = (batch, g.size)
    offset = 2 * np.exp(2j * np.pi * rng.random((batch, 1)))
    return offset + rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("g", MAXIMAL_GENERATORS, ids=MAXIMAL_IDS)
@pytest.mark.parametrize("batch", [1, 3, 128])
def test_maximal_abs_matches_per_rank_oracle(g, batch):
    # The averages are summed in another order, so they may differ in the
    # last bits; the function and its maxima are otherwise the same.
    values = random_rows(g, batch, g.size + batch)
    got = hardy._maximal_abs(values, g)
    ref = _maximal_abs_per_rank(values, g)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 4e-15 * ref)


@pytest.mark.parametrize("g", MAXIMAL_GENERATORS, ids=MAXIMAL_IDS)
def test_maximal_abs_rows_identical_batched_or_alone(g):
    values = random_rows(g, 128, g.size)
    rows = hardy._maximal_abs(values, g)
    for i in range(len(values)):
        assert rows[i].tobytes() == hardy._maximal_abs(values[i], g).tobytes()


# --- atoms -------------------------------------------------------------------


def test_zero_function_is_degenerate_atom(gen):
    ok, checks = is_p_atom(
        GridFunction.constant(gen, 0.0), 0, (0,) * gen.depth, 0.5
    )
    assert ok, checks


def test_walsh_block_atom():
    g = GeneratorSequence.walsh(4)
    a = GridFunction(g, 4.0 * (dirichlet(8, g).values - dirichlet(4, g).values))
    ok, checks = is_p_atom(a, 2, (0,) * 4, 0.5)
    assert ok, checks
    assert np.max(np.abs(a.values)) == pytest.approx(16.0)


def test_atom_mean_violation_diagnosed():
    g = GeneratorSequence.walsh(4)
    a = GridFunction(
        g, 4.0 * (dirichlet(8, g).values - dirichlet(4, g).values) + 0.5
    )
    ok, checks = is_p_atom(a, 2, (0,) * 4, 0.5)
    assert not ok
    assert not checks["mean_zero"]


# --- the counterexample construction ----------------------------------------


def test_counterexample_walsh_single_block():
    g = GeneratorSequence.walsh(4)
    ce = counterexample_martingale(ONE, [2], g)
    lam = 1.0 / math.log(4.0)
    assert ce.lambdas[0] == pytest.approx(lam)
    coeffs = forward_transform(ce.function).coeffs
    expected = np.zeros(16, dtype=complex)
    expected[4:8] = 4 * lam
    assert np.max(np.abs(coeffs - expected)) < 1e-12


def test_counterexample_atoms_and_martingale():
    ce = counterexample_martingale(ONE, [2, 4, 6], GeneratorSequence.walsh(8))
    atoms = ce.atoms()
    assert [atom.rank for atom in atoms] == [2, 4, 6]
    for atom in atoms:
        ok, checks = is_p_atom(atom.values, atom.rank, atom.base, 0.5)
        assert ok, checks
    # the function is the top level sum_k lambda_k a_k, to the bit
    top = np.zeros(ce.gen.size, dtype=complex)
    for lam, atom in zip(ce.lambdas, atoms):
        top += lam * atom.values.values
    assert top.tobytes() == ce.function.values.tobytes()


def test_counterexample_keeps_only_its_top_level():
    g = GeneratorSequence.walsh(16)
    ranks = [4, 6, 8, 10, 12, 14, 15]
    grid = 16 * g.size
    # a first call fills group's memoised digit arrays, which every later
    # Rademacher function of this grid shares; only the second call counts
    counterexample_martingale(ONE, ranks, g)
    tracemalloc.start()
    try:
        ce = counterexample_martingale(ONE, ranks, g)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ce.alphas == tuple(ranks)
    assert peak <= 6 * grid
    assert kept <= 2 * grid


def test_counterexample_closed_form_coefficients():
    g = GeneratorSequence.walsh(9)
    ce = counterexample_martingale(ONE, [3, 5, 7], g)
    coeffs = forward_transform(ce.function).coeffs
    assert np.max(np.abs(coeffs - ce.closed_form_coefficients())) < 1e-10


def test_counterexample_partial_sum_closed_form():
    g = GeneratorSequence.walsh(8)
    ce = counterexample_martingale(ONE, [3, 6], g)
    for k, alpha in enumerate(ce.alphas):
        Ma = g.scale[alpha]
        frozen = partial_sum(ce.function, Ma)
        psi = vilenkin_fn(Ma, g)
        for j in range(Ma, 2 * Ma):
            direct = partial_sum(ce.function, j)
            closed = frozen
            if j > Ma:
                closed = frozen + ce.lambdas[k] * Ma * (psi * dirichlet(j - Ma, g))
            assert np.max(np.abs(direct.values - closed.values)) < 1e-9


def test_counterexample_coefficient_sum_summable():
    g = GeneratorSequence.walsh(12)
    ce = counterexample_martingale(ONE, range(4, 12), g)
    total = sum(math.sqrt(lam) for lam in ce.lambdas)
    assert total < 4.0  # geometric-type decay of sqrt(1 / log M_a)


def test_counterexample_depth_guard():
    with pytest.raises(ValueError):
        counterexample_martingale(ONE, [3], WALSH)


@pytest.mark.parametrize("ranks,named", [([5], "rank 5"), ([2, 4], "rank 4"), ([0, 2], "rank 0")])
def test_counterexample_refuses_rank_outside_grid(ranks, named):
    with pytest.raises(ValueError, match=named):
        counterexample_martingale(ONE, ranks, GeneratorSequence.walsh(4))


def test_counterexample_rejects_unsorted():
    g = GeneratorSequence.walsh(8)
    with pytest.raises(ValueError):
        counterexample_martingale(ONE, [4, 2], g)


# --- rank selection ----------------------------------------------------------


def test_select_alphas_constant_weight():
    g = GeneratorSequence.walsh(16)
    # first rank solves n log 2 >= threshold; thresholds then square up
    assert select_alphas(ONE, 1, g) == [6]
    assert select_alphas(ONE, 3, g, threshold=2.0) == [3, 6, 12]
    # the default 4^k schedule outgrows this depth after one rank
    assert select_alphas(ONE, 2, g) == [6]


def test_select_alphas_log_weight_fails():
    # log n / phi_n stays near 1: no rank reaches the threshold
    g = GeneratorSequence.walsh(16)
    phi = lambda n: max(1.0, math.log(max(n, 1)))  # noqa: E731
    assert select_alphas(phi, 3, g) == []


def test_select_alphas_sqrt_log_weight():
    g = GeneratorSequence.walsh(20)
    phi = lambda n: max(1.0, math.sqrt(math.log(max(n, 2))))  # noqa: E731
    ranks = select_alphas(phi, 1, g, threshold=2.0)
    assert len(ranks) == 1
    assert math.log(g.scale[ranks[0]]) / phi(2 * g.scale[ranks[0]]) >= 2.0


@pytest.mark.parametrize("weight", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "build",
    [lambda phi, g: select_alphas(phi, 2, g),
     lambda phi, g: counterexample_martingale(phi, [1, 3], g)],
    ids=["select_alphas", "counterexample_martingale"],
)
def test_block_weights_refuse_phi_not_finite_positive(build, weight):
    # Both read phi(2 M_1) = phi(4) first.  phi = 0 used to raise a bare
    # ZeroDivisionError in select_alphas and give lambdas (0, 0) in
    # counterexample_martingale; nan gave [] silently, -1 negative lambdas.
    g = GeneratorSequence.walsh(8)
    with pytest.raises(ValueError, match=rf"phi\(4\)={weight} must be finite and > 0"):
        build(lambda n: weight, g)


# --- strong sums -------------------------------------------------------------


def test_strong_sums_constant_function():
    g = GeneratorSequence.walsh(5)
    f = vilenkin_fn(0, g)
    n = 16
    expected = np.mean([math.sqrt((k - 1) / k) for k in range(1, n + 1)])
    assert strong_sums(f, n, mode="fejer_plain") == pytest.approx(expected)
    assert strong_sums(f, n, mode="fejer_plain") <= 1.0


def test_strong_sums_zero_function(gen):
    f = GridFunction.constant(gen, 0.0)
    for mode in ("fejer_plain", "fejer_weighted", "simon", "gat"):
        assert strong_sums(f, gen.size, mode=mode) == pytest.approx(0.0)


def test_strong_sums_gat_telescopes_for_character():
    g = GeneratorSequence.walsh(5)
    assert strong_sums(vilenkin_fn(0, g), 32, mode="gat") == pytest.approx(0.0)


def test_strong_sums_match_direct_evaluation(gen, rng):
    f = random_function(gen, rng)
    n = gen.size
    k = np.arange(1, n + 1)
    sig = np.array(
        [lp_quasinorm(fejer_mean(f, kk), 0.5) ** 0.5 for kk in k]
    )
    assert strong_sums(f, n, mode="fejer_plain") == pytest.approx(np.mean(sig))
    hyp = np.array(
        [function_hardy_quasinorm(fejer_mean(f, kk), 0.5) ** 0.5 for kk in k]
    )
    assert strong_sums(f, n, mode="fejer_weighted") == pytest.approx(
        np.sum(hyp) / (n * math.log(n))
    )
    sp = np.array([lp_quasinorm(partial_sum(f, kk), 0.5) for kk in k])
    assert strong_sums(f, n, p=0.5, mode="simon") == pytest.approx(
        np.sum(sp**0.5 / k**1.5)
    )


def test_sigma_norm_profile_matches_loop(gen, rng):
    f = random_function(gen, rng)
    prof = sigma_norm_profile(f, gen.size)
    for k in (1, 2, gen.size // 2, gen.size):
        assert prof[k - 1] == pytest.approx(
            lp_quasinorm(fejer_mean(f, k), 0.5) ** 0.5
        )


def test_strong_sums_rejects_bad_mode(gen, rng):
    with pytest.raises(ValueError):
        strong_sums(random_function(gen, rng), 2, mode="nope")


@pytest.mark.parametrize("mode", ["gat", "fejer_weighted"])
def test_strong_sums_refuse_n_one_where_log_n_divides(mode):
    f = random_function(WALSH, np.random.default_rng(1))
    with pytest.raises(ValueError, match="n=1"):
        strong_sums(f, 1, mode=mode)
    assert math.isfinite(strong_sums(f, 2, mode=mode))


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_strong_sums_refuse_bad_exponent(p):
    f = random_function(WALSH, np.random.default_rng(2))
    with pytest.raises(ValueError, match=f"got {p}"):
        strong_sums(f, 4, p=p, mode="simon")
    with pytest.raises(ValueError, match=f"got {p}"):
        partial_sum_norm_profile(f, 4, p)


ORDER_ENTRIES = {
    "sigma_plain": lambda f, n: sigma_norm_profile(f, n),
    "sigma_hardy": lambda f, n: sigma_norm_profile(f, n, hardy=True),
    "partial_sum_profile": lambda f, n: partial_sum_norm_profile(f, n, 1.0),
    **{
        mode: (lambda f, n, mode=mode: strong_sums(f, n, mode=mode))
        for mode in ("fejer_plain", "fejer_weighted", "simon", "gat")
    },
}


@pytest.mark.parametrize("entry", ORDER_ENTRIES.values(), ids=ORDER_ENTRIES.keys())
def test_profile_orders_refuse_floats(entry):
    # Before one shared check, 7.0 and 7.5 raised a TypeError from numpy
    # slicing in the partial-sum entry points; later an integral float ran
    # as its int.  An order is an int or np.integer, so 7.0 is refused too.
    f = random_function(WALSH, np.random.default_rng(3))
    assert np.asarray(entry(f, np.int64(7))).tobytes() == np.asarray(entry(f, 7)).tobytes()
    for bad in (7.0, 7.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"={bad} is not an integer"):
            entry(f, bad)


def profile_blocks(monkeypatch):
    """Record the number of rows of each Fejer block sigma_norm_profile asks for."""
    sizes = []
    blocks = hardy.fejer_mean_blocks

    def spy(coeffs, ks, gen, block_bytes):
        for block in blocks(coeffs, ks, gen, block_bytes):
            sizes.append(len(block[0]))
            yield block

    monkeypatch.setattr(hardy, "fejer_mean_blocks", spy)
    return sizes


# Each row sigma_k f lies on the coarsest grid m[:r] with
# M_r >= max(k - 1, 128), so a block holds rows of one grid: k <= 129 on
# 128 cells, k <= 257 on 256 cells, and so on.  1 MiB is 512 rows of 128
# cells, 256 of 256, 128 of 512.
@pytest.mark.parametrize("hardy_norm", [False, True], ids=["plain", "hardy"])
def test_sigma_profile_blocks_capped_in_bytes_keep_bytes(monkeypatch, hardy_norm):
    sizes = profile_blocks(monkeypatch)
    g12 = GeneratorSequence.walsh(12)
    sigma_norm_profile(random_function(g12, np.random.default_rng(8)), 130, hardy_norm)
    assert sizes == [129, 1]
    g = GeneratorSequence.walsh(13)
    f = random_function(g, np.random.default_rng(9))
    sizes.clear()
    monkeypatch.setattr(hardy, "_ROW_BYTES", 1 << 15)  # 16 rows of 128 cells, 8 of 256
    capped = sigma_norm_profile(f, 150, hardy_norm)
    assert sizes == [16] * 8 + [1] + [8] * 2 + [5]
    monkeypatch.setattr(hardy, "_ROW_BYTES", 1 << 40)
    sizes.clear()
    uncapped = sigma_norm_profile(f, 150, hardy_norm)
    assert sizes == [129, 21]  # no row cap: one block per grid
    assert capped.tobytes() == uncapped.tobytes()


def test_sigma_profile_blocks_on_the_divergence_grid(monkeypatch):
    sizes = profile_blocks(monkeypatch)
    g = GeneratorSequence.walsh(9)
    sigma_norm_profile(random_function(g, np.random.default_rng(11)), 512, hardy=True)
    assert sizes == [129, 128, 128, 127]


def full_grid_profile(f, ks, hardy_norm):
    """The profile entries of the orders ``ks``, every row synthesized and
    reduced on all M_N cells."""
    gen = f.gen
    rows = fejer_mean_rows(forward_transform(f).coeffs, ks, gen)
    star = hardy._maximal_abs(rows, gen) if hardy_norm else np.abs(rows)
    return np.mean(np.sqrt(star), axis=-1)


def boundary_orders(g):
    """Every order up to 130, and the orders around each rank boundary above,
    up to the first rows on the full grid, k - 1 > M_{N-1}."""
    ks = set(range(1, min(g.size, 130) + 1))
    for M in g.scale[1:-1]:
        ks.update(k for k in range(M - 1, M + 4) if k <= g.size)
    return np.array(sorted(ks))


def walsh_function(depth, real):
    f = random_function(GeneratorSequence.walsh(depth), np.random.default_rng(depth))
    return GridFunction(f.gen, f.values.real) if real else f


# Real Walsh rows past Walsh(10) take a float64 matmul whose bits depend on
# the grid (up to 4.4e-16 relative on Walsh(12)); complex rows do not.
COARSE_WALSH = [
    pytest.param(walsh_function(9, real=False), id="walsh9-complex"),
    pytest.param(walsh_function(9, real=True), id="walsh9-real"),
    pytest.param(walsh_function(12, real=False), id="walsh12-complex"),
]


@pytest.mark.parametrize("f", COARSE_WALSH)
@pytest.mark.parametrize("hardy_norm", [False, True], ids=["plain", "hardy"])
def test_coarse_profile_is_byte_equal_to_the_full_grid_on_walsh(f, hardy_norm):
    ks = boundary_orders(f.gen)
    profile = sigma_norm_profile(f, ks[-1], hardy_norm)
    assert profile[ks - 1].tobytes() == full_grid_profile(f, ks, hardy_norm).tobytes()


COARSE_OTHER = [
    pytest.param(GeneratorSequence.constant(3, 7), id="3^7"),
    pytest.param(GeneratorSequence.cycle([2, 3, 4], 9), id="cycle234x9"),
    pytest.param(GeneratorSequence.walsh(12), id="walsh12-real"),
]


@pytest.mark.parametrize("g", COARSE_OTHER)
@pytest.mark.parametrize("hardy_norm", [False, True], ids=["plain", "hardy"])
def test_coarse_profile_agrees_with_the_full_grid(g, hardy_norm):
    f = random_function(g, np.random.default_rng(g.size))
    if g.m[0] == 2:
        f = GridFunction(g, f.values.real)
    ks = boundary_orders(g)
    profile = sigma_norm_profile(f, ks[-1], hardy_norm)[ks - 1]
    assert np.all(np.abs(profile - full_grid_profile(f, ks, hardy_norm)) <= 1e-15 * profile)


def test_profile_bytes_do_not_depend_on_the_block_size(monkeypatch):
    # Each row's grid depends on its order alone, so no block size moves a
    # bit, even where a coarse row's bits differ from the full grid's.
    f = random_function(GeneratorSequence.constant(3, 6), np.random.default_rng(4))
    profiles = []
    for row_bytes in (1, 1 << 12, 1 << 20, 1 << 40):
        monkeypatch.setattr(hardy, "_ROW_BYTES", row_bytes)
        profiles.append(sigma_norm_profile(f, f.gen.size, hardy=True).tobytes())
    assert len(set(profiles)) == 1


def test_short_profiles_run_on_a_coarse_grid(monkeypatch):
    grids = []
    blocks = hardy.fejer_mean_blocks

    def spy(coeffs, ks, gen, block_bytes):
        for block in blocks(coeffs, ks, gen, block_bytes):
            grids.append(block[1].size)
            yield block

    monkeypatch.setattr(hardy, "fejer_mean_blocks", spy)
    f = walsh_function(9, real=False)
    assert sigma_norm_profile(f, 1).tobytes() == np.zeros(1).tobytes()
    expected = np.sum(full_grid_profile(f, [1, 2], True)) / (2 * math.log(2))
    # An order check on the coarse grid would refuse n = 2 there.
    assert strong_sums(f, 2, mode="fejer_weighted") == expected
    assert grids == [128, 128]


def test_hardy_profile_peak_allocation_bounded_by_byte_cap(monkeypatch):
    g = GeneratorSequence.walsh(12)
    f = random_function(g, np.random.default_rng(10))
    # 2 rows of the full grid a block, up to 8 of Walsh(10), 32 of Walsh(8).
    monkeypatch.setattr(hardy, "_ROW_BYTES", 1 << 17)
    sigma_norm_profile(f, g.size, hardy=True)  # fills the caches of every grid
    tracemalloc.start()
    try:
        sigma_norm_profile(f, g.size, hardy=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Measured 5.03 x 128 KiB past the orders and the profile (8 bytes an
    # order each; numpy 2.4), so the peak lies in the synthesis of a block.
    # On full-grid blocks of 1 MiB (Walsh(15)) it was 5.00 x 1 MiB, and with
    # at most 128 rows and 8 MiB a block, 4.56 x 8 MiB.
    assert peak <= 5.1 * hardy._ROW_BYTES + 16 * g.size


# --- the partial-sum row engine ----------------------------------------------

# (generator, an n that is not a multiple of the engine's block length L)
ENGINE_CASES = [
    pytest.param(GeneratorSequence.walsh(7), 37, id="walsh7"),  # L = 16
    pytest.param(GeneratorSequence.cycle([2, 3, 4], 5), 100, id="cycle234x5"),  # L = 24
    pytest.param(GeneratorSequence((5,)), 3, id="depth1"),  # L = M_N, one block
]


def engine_rows(f, n):
    got = []

    def keep(rows):
        got.append(rows.copy())
        return np.zeros(len(rows))

    hardy._partial_sum_rows(f, n, keep)
    return np.concatenate(got)


@pytest.mark.parametrize("g,odd_n", ENGINE_CASES)
def test_partial_sum_rows_match_direct_loop(g, odd_n):
    f = random_function(g, np.random.default_rng(g.size))
    for n in (1, odd_n, g.size):
        rows = engine_rows(f, n)
        ref = np.array([partial_sum(f, k).values for k in range(1, n + 1)])
        assert rows.shape == ref.shape
        assert np.max(np.abs(rows - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("g,odd_n", ENGINE_CASES)
def test_gat_matches_partial_sum_loop(g, odd_n):
    f = random_function(g, np.random.default_rng(g.size + 1))
    for n in (2, odd_n, g.size):
        k = np.arange(1, n + 1)
        terms = np.array([lp_quasinorm(partial_sum(f, kk) - f, 1.0) for kk in k])
        expected = np.sum(terms / k) / math.log(n)
        assert strong_sums(f, n, mode="gat") == pytest.approx(expected, rel=1e-12)


def test_partial_sum_profiles_rerun_byte_identical():
    g = GeneratorSequence.cycle([2, 3, 4], 5)
    f = random_function(g, np.random.default_rng(5))
    first = partial_sum_norm_profile(f, g.size, 0.5)
    assert first.tobytes() == partial_sum_norm_profile(f, g.size, 0.5).tobytes()
    assert strong_sums(f, g.size, mode="gat") == strong_sums(f, g.size, mode="gat")


def _random_coeffs(support, complex_part=True, seed=0):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=support)
    return c + 1j * rng.normal(size=support) if complex_part else c


# (generator, coefficients, orders n): a synthesized function keeps its exact
# spectrum, so past the support the engine reduces one row for all the rest.
NEG_ZERO = np.append(_random_coeffs(20, seed=1), -0.0)
NEG_ZERO[3] = -0.0
SUPPORT_CASES = [
    pytest.param(GeneratorSequence.walsh(7), np.zeros(0), (2, 37, 128), id="walsh7-K0"),
    pytest.param(GeneratorSequence.walsh(7), _random_coeffs(128, seed=2), (2, 37, 128),
                 id="walsh7-KM_N"),
    pytest.param(GeneratorSequence.walsh(7), NEG_ZERO, (2, 19, 37, 128), id="walsh7-negzero"),
    pytest.param(GeneratorSequence.walsh(7), _random_coeffs(5, False, seed=3), (2, 3, 37, 128),
                 id="walsh7-real"),
    pytest.param(GeneratorSequence.cycle([2, 3, 4], 5), _random_coeffs(30, seed=4),
                 (2, 29, 37, 100, 144), id="cycle234x5"),
    pytest.param(GeneratorSequence.constant(3, 5), _random_coeffs(10, seed=5), (2, 9, 28, 243),
                 id="3x5"),
]


@pytest.mark.parametrize("g, c, ns", SUPPORT_CASES)
def test_strong_sums_of_a_synthesized_function_match_partial_sum_loop(g, c, ns):
    f = synthesize(g, c)
    for n in ns:
        k = np.arange(1, n + 1)
        partial = [partial_sum(f, int(kk)) for kk in k]
        norms = np.array([lp_quasinorm(s, 0.5) for s in partial])
        profile = partial_sum_norm_profile(f, n, 0.5)
        assert np.max(np.abs(profile - norms)) <= 1e-12 * np.max(norms)
        simon = np.sum(norms**0.5 / k**1.5)
        assert strong_sums(f, n, mode="simon") == pytest.approx(simon, rel=1e-12, abs=0)
        terms = np.array([lp_quasinorm(s - f, 1.0) for s in partial])
        gat = np.sum(terms / k) / math.log(n)
        assert strong_sums(f, n, mode="gat") == pytest.approx(gat, rel=1e-12, abs=0)


@pytest.mark.parametrize("g, c, ns", SUPPORT_CASES)
def test_row_engine_stops_at_the_support(g, c, ns):
    f = synthesize(g, c)
    nonzero = np.flatnonzero(c)
    support = int(nonzero[-1]) + 1 if nonzero.size else 0
    L = next(M for M in g.scale if M * M >= g.size)
    cut = -(-support // L) * L
    for n in ns:
        reduced = engine_rows(f, n).shape[0]
        assert reduced == (n if n <= cut else cut + 1), n


def test_row_engine_peak_allocation_within_budget(monkeypatch):
    g = GeneratorSequence.walsh(12)  # L = 64, so n = M_N needs 64 bases
    f = random_function(g, np.random.default_rng(6))
    budget = 1 << 20
    every_base = (g.size // 64) * g.size * 16
    assert every_base >= 2 * budget
    unbounded = partial_sum_norm_profile(f, g.size, 0.5)
    monkeypatch.setattr(hardy, "_ROW_BYTES", budget // 8)
    tracemalloc.start()
    try:
        profile = partial_sum_norm_profile(f, g.size, 0.5)
        profile_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        strong_sums(f, g.size, mode="gat")
        gat_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert profile_peak <= budget
    assert gat_peak <= budget
    assert np.max(np.abs(profile - unbounded)) <= 1e-12 * np.max(unbounded)


# --- boundedness at the M_k scale -------------------------------------------


@pytest.mark.parametrize("p", [0.5, 1.0])
def test_scale_operators_hardy_bounded(p):
    g = GeneratorSequence.walsh(8)
    rng = np.random.default_rng(99)
    worst_s = worst_sigma = 0.0
    for _ in range(50):
        f = random_function(g, rng)
        hf = function_hardy_quasinorm(f, p)
        for k in range(1, g.depth + 1):
            Mk = g.scale[k]
            worst_s = max(worst_s, lp_quasinorm(partial_sum(f, Mk), p) / hf)
            worst_sigma = max(worst_sigma, lp_quasinorm(fejer_mean(f, Mk), p) / hf)
    # empirical absolute constants; projections never exceed the H_p mass here
    assert worst_s <= 1.0 + 1e-9
    assert worst_sigma <= 2.0


def test_fejer_hardy_log_bound():
    g = GeneratorSequence.walsh(7)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(10):
        f = random_function(g, rng)
        hf = function_hardy_quasinorm(f, 0.5) ** 0.5
        for k in range(2, g.size + 1):
            ratio = function_hardy_quasinorm(fejer_mean(f, k), 0.5) ** 0.5 / hf
            worst = max(worst, ratio / math.log(k))
    assert worst < 3.0


def test_weighted_ratio_stays_bounded_across_depth():
    # the weighted Fejer sum normalized by the source H quasi-norm stays
    # below a depth-independent level on random data
    rng = np.random.default_rng(31)
    worst_by_depth = []
    for depth in (5, 6, 7):
        g = GeneratorSequence.walsh(depth)
        worst = 0.0
        for _ in range(5):
            f = random_function(g, rng)
            denom = function_hardy_quasinorm(f, 0.5) ** 0.5
            for n in (4, 16, g.size):
                if n >= 2:
                    worst = max(
                        worst, strong_sums(f, n, mode="fejer_weighted") / denom
                    )
        worst_by_depth.append(worst)
    assert max(worst_by_depth) < 2.0


# --- the counterexample's atoms and levels -----------------------------------

COUNTEREXAMPLE_CASES = [
    (GeneratorSequence.walsh(8), (3, 6)),
    (GeneratorSequence.cycle((2, 3, 4), 6), (2, 4)),
    (GeneratorSequence.constant(3, 5), (1, 3)),
    (GeneratorSequence((5, 2, 2, 3, 2, 2)), (2, 4)),
    (GeneratorSequence((2, 67, 2)), (1, 2)),
    (GeneratorSequence.walsh(10), (2, 5, 8)),
]
COUNTEREXAMPLE_IDS = ["x".join(map(str, g.m)) for g, _ in COUNTEREXAMPLE_CASES]


@pytest.mark.parametrize("g, alphas", COUNTEREXAMPLE_CASES[:4], ids=COUNTEREXAMPLE_IDS[:4])
def test_counterexample_levels_are_partial_atomic_sums(g, alphas):
    # the atom of rank a has its spectrum in [M_a, 2 M_a), so it enters the
    # martingale at level a + 1: E_n f = sum over alpha_k < n of lambda_k a_k
    ce = counterexample_martingale(ONE, alphas, g)
    atoms = ce.atoms()
    coeffs = forward_transform(ce.function).coeffs
    scale = np.max(np.abs(ce.function.values))
    for n in range(g.depth + 1):
        expected = np.zeros(g.size, dtype=complex)
        for lam, atom in zip(ce.lambdas, atoms):
            if atom.rank < n:
                expected += lam * atom.values.values
        level = conditional_expectation(ce.function, n).values
        synthesized = partial_sum_rows(coeffs, [g.scale[n]], g)[0]
        assert np.max(np.abs(level - expected)) <= 1e-12 * scale
        assert np.max(np.abs(synthesized - expected)) <= 1e-10 * scale


def _coefficient_quasinorm(coefficients, p):
    return sum(abs(c) ** p for c in coefficients) ** (1.0 / p)


@pytest.mark.parametrize("g, alphas", COUNTEREXAMPLE_CASES, ids=COUNTEREXAMPLE_IDS)
def test_counterexample_norm_against_coefficients(g, alphas):
    # ||sum_k lambda_k a_k||_{H_{1/2}} <= C ||lambda||_{l^{1/2}} for p-atoms a_k;
    # measured ratios lie between 0.81 and 0.98
    ce = counterexample_martingale(ONE, alphas, g)
    ratio = function_hardy_quasinorm(ce.function, 0.5) / _coefficient_quasinorm(
        ce.lambdas, 0.5
    )
    assert ratio < 4.0


def test_assembled_norm_against_coefficients():
    # the same bound for coefficients of our choosing; measured ratio 0.53
    g = GeneratorSequence.walsh(6)
    atoms = counterexample_martingale(ONE, [1, 3, 4], g).atoms()
    coefs = (0.8, 0.3, 0.1)
    top = GridFunction.constant(g, 0.0)
    for c, atom in zip(coefs, atoms):
        ok, checks = is_p_atom(atom.values, atom.rank, atom.base, 0.5)
        assert ok, checks
        top = top + c * atom.values
    ratio = function_hardy_quasinorm(top, 0.5) / _coefficient_quasinorm(coefs, 0.5)
    assert ratio < 4.0


# --- the Fejer-mean split in an active block --------------------------------


def _sigma_split(ce, k, n):
    """Deviation of sigma_n f from its split in the block of alpha_k, and the
    split's kernel part.

    For M_a <= n < 2 M_a the partial sums inside the block satisfy
    S_j f = S_{M_a} f + lambda_k M_a psi_{M_a} D_{j - M_a}, so

        sigma_n f = (M_a/n) sigma_{M_a} f
                  + ((n - M_a)/n) S_{M_a} f
                  + lambda_k M_a ((n - M_a)/n) psi_{M_a} K_{n - M_a}.
    """
    g = ce.gen
    lam = ce.lambdas[k]
    Ma = g.scale[ce.alphas[k]]
    assert Ma <= n < 2 * Ma
    f = ce.function
    kernel = GridFunction.constant(g, 0.0)
    if n > Ma:
        kernel = (lam * Ma * (n - Ma) / n) * (vilenkin_fn(Ma, g) * fejer_kernel(n - Ma, g))
    split = (Ma / n) * fejer_mean(f, Ma) + ((n - Ma) / n) * partial_sum(f, Ma) + kernel
    return float(np.max(np.abs(fejer_mean(f, n).values - split.values))), kernel


def _kernel_mass(kernel):
    """||kernel||_{1/2}^{1/2}, the mean of sqrt|kernel|."""
    return float(np.mean(np.sqrt(np.abs(kernel.values))))


def test_sigma_split_at_window_edge():
    ce = counterexample_martingale(ONE, [3, 6], GeneratorSequence.walsh(8))
    for k, n in ((0, 8), (0, 15), (1, 64), (1, 127)):
        deviation, _ = _sigma_split(ce, k, n)
        assert deviation < 1e-9


def test_sigma_split_inside_window():
    ce = counterexample_martingale(ONE, [3, 6], GeneratorSequence.walsh(8))
    deviation, kernel = _sigma_split(ce, 0, 12)
    assert deviation < 1e-9
    assert _kernel_mass(kernel) > 0


def test_sigma_split_kernel_mass_lower_bound():
    g = GeneratorSequence.walsh(9)
    ce = counterexample_martingale(ONE, [4], g)
    lam = ce.lambdas[0]
    # offset 1 is skipped: the unit Fejer kernel is identically zero, so the
    # kernel part carries no mass there.  Observed ratios stay above 0.35.
    for n in range(18, 32):
        deviation, kernel = _sigma_split(ce, 0, n)
        assert deviation < 1e-9
        assert _kernel_mass(kernel) >= 0.01 * math.sqrt(lam) * variation(n - 16, g)


@pytest.mark.parametrize("g, alphas", COUNTEREXAMPLE_CASES, ids=COUNTEREXAMPLE_IDS)
def test_sigma_split_at_every_n_of_every_block(g, alphas):
    # measured: deviations at most 1.6e-12, mass ratios at least 0.32
    ce = counterexample_martingale(ONE, alphas, g)
    for k, a in enumerate(ce.alphas):
        Ma = g.scale[a]
        for n in range(Ma, 2 * Ma):
            deviation, kernel = _sigma_split(ce, k, n)
            assert deviation < 1e-9
            v = variation(n - Ma, g)
            if n - Ma > 1 and v:
                ratio = _kernel_mass(kernel) / (math.sqrt(ce.lambdas[k]) * v)
                assert ratio >= 0.25
