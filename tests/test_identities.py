import functools
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import vilenkin
from vilenkin import (
    GeneratorSequence, dirichlet, fejer_kernel, identities, rademacher, to_digits,
    vilenkin_fn,
)
from vilenkin.identities import (
    _random_block_patterns,
    CheckReport,
    check_block_pattern_lower_bound,
    check_digit_tail_bound,
    check_dirichlet_at_scale,
    check_dirichlet_scaled,
    check_dirichlet_shift,
    check_kernel_block_decomposition,
    check_kernel_digit_expansion,
    check_kernel_lower_bound,
    check_kernel_vanishing,
    compose_block_number,
    run_suite,
)

WALSH6 = GeneratorSequence.walsh(6)
TERNARY4 = GeneratorSequence.constant(3, 4)
MIXED5 = GeneratorSequence.cycle([2, 3, 4], 5)
SWEEP_GENERATORS = [WALSH6, TERNARY4, MIXED5]


def test_report_semantics():
    r = CheckReport.deviation("x", {}, 1e-12)
    assert r.passed and r.kind == "deviation"
    r = CheckReport.deviation("x", {}, 1e-3)
    assert not r.passed
    r = CheckReport.margin("x", {}, -0.5)
    assert not r.passed
    r = CheckReport.not_applicable("x", {}, "why")
    assert r.passed and r.note == "why"


def test_block_decomposition_collapses_for_unit_scale():
    # s = 1 reduces both sides to M_n K_{M_n}
    r = check_kernel_block_decomposition(2, 1, WALSH6)
    assert r.passed and r.value < 1e-12


def test_block_decomposition_ternary():
    r = check_kernel_block_decomposition(1, 2, TERNARY4)
    assert r.passed and r.value < 1e-9


@pytest.mark.parametrize("gen", SWEEP_GENERATORS, ids=str)
def test_block_decomposition_sweep(gen):
    for n in range(min(4, gen.depth - 1) + 1):
        for s in range(1, gen.m[n]):
            assert check_kernel_block_decomposition(n, s, gen).value < 1e-9


def test_lower_bound_walsh_example():
    r = check_kernel_lower_bound(2, 1, WALSH6)
    assert r.passed
    # |4 K_4| on the spike cylinder clears 16 / (2 pi) ~ 2.546
    from vilenkin import fejer_kernel, point_index

    spike = point_index((0, 1, 1, 0, 0, 0), WALSH6)
    assert abs(4 * fejer_kernel(4, WALSH6).values[spike]) >= 16 / (2 * np.pi)


def test_lower_bound_ternary():
    assert check_kernel_lower_bound(1, 2, TERNARY4).passed


@pytest.mark.parametrize("gen", SWEEP_GENERATORS, ids=str)
def test_lower_bound_sweep(gen):
    for n in range(1, min(4, gen.depth - 1) + 1):
        for s in range(1, gen.m[n]):
            assert check_kernel_lower_bound(n, s, gen).passed


def test_vanishing_walsh():
    r = check_kernel_vanishing(3, 1, 0, WALSH6)
    assert r.passed
    assert "cells=" in r.note


def test_vanishing_has_qualifying_cells():
    # for n >= t + 2 there is a digit position strictly between t and n
    for n in (2, 3, 4):
        for t in range(n - 1):
            r = check_kernel_vanishing(n, 1, t, WALSH6)
            assert int(r.note.split("=")[1]) > 0


def test_vanishing_excludes_cells_outside_hypothesis():
    # with t = n - 1 no position lies strictly between t and n: vacuous
    r = check_kernel_vanishing(3, 1, 2, WALSH6)
    assert r.passed and r.note == "no qualifying cell"


def test_digit_expansion_walsh_five():
    # 5 K_5 = 4 K_4 + 1 * D_4 after the K_1 term drops out
    r = check_kernel_digit_expansion(5, WALSH6)
    assert r.passed and r.value < 1e-10


def test_digit_expansion_single_digit(gen):
    s = gen.m[-1] - 1
    n = s * gen.scale[gen.depth - 1]
    r = check_kernel_digit_expansion(n, gen)
    assert r.passed and r.value < 1e-12


@pytest.mark.parametrize("gen", SWEEP_GENERATORS, ids=str)
def test_digit_expansion_exhaustive_below_m4(gen):
    for n in range(1, gen.scale[4]):
        assert check_kernel_digit_expansion(n, gen).value < 1e-9


def test_compose_block_number():
    n = compose_block_number([(0, 1), (4, 4)], WALSH6)
    assert n == 1 + 2 + 16
    with pytest.raises(ValueError):
        compose_block_number([(0, 1), (2, 3)], WALSH6)  # gap below 2


def test_block_pattern_walsh():
    g = GeneratorSequence.walsh(7)
    r = check_block_pattern_lower_bound([(4, 5)], g)
    assert r.passed and r.value >= 0


def test_block_pattern_single_digit_consistent_with_sharper_bound():
    g = GeneratorSequence.walsh(6)
    r = check_block_pattern_lower_bound([(4, 4)], g)
    sharper = check_kernel_lower_bound(4, 1, g)
    assert r.passed and sharper.passed
    # the 1/144 bound is weaker than 1/(2 pi), so the margin is larger
    assert r.value >= sharper.value


def test_block_pattern_not_applicable():
    r = check_block_pattern_lower_bound([(0, 1)], WALSH6)
    assert r.passed and "no block" in r.note


def test_block_pattern_randomized_depth10():
    g = GeneratorSequence.walsh(10)
    rng = np.random.default_rng(1234)
    from vilenkin.identities import _random_block_patterns

    for pattern in _random_block_patterns(g, rng, 40):
        digits = {
            pos: int(rng.integers(1, g.m[pos]))
            for (l, r) in pattern
            for pos in range(l, r + 1)
        }
        assert check_block_pattern_lower_bound(pattern, g, digits).passed


def test_tail_bound_walsh_five():
    r = check_digit_tail_bound(5, WALSH6)
    # first tail is 1, bounded by M_2 = 4
    assert r.passed


def test_tail_bound_single_digit(gen):
    n = gen.scale[gen.depth - 1]
    assert check_digit_tail_bound(n, gen).value == gen.scale[gen.depth - 1]


@pytest.mark.parametrize("gen", SWEEP_GENERATORS, ids=str)
def test_tail_bound_exhaustive(gen):
    top = min(gen.size, gen.scale[min(5, gen.depth)])
    for n in range(1, top):
        assert check_digit_tail_bound(n, gen).passed


def test_dirichlet_checkers(gen):
    for n in range(gen.depth + 1):
        assert check_dirichlet_at_scale(n, gen).passed
    for n in range(gen.depth):
        for s in range(1, gen.m[n]):
            assert check_dirichlet_scaled(n, s, gen).passed


def test_shift_identity(gen):
    for alpha in range(gen.depth):
        if 2 * gen.scale[alpha] <= gen.size:
            assert check_dirichlet_shift(alpha, gen).passed


def test_suite_deterministic_and_green():
    gen = GeneratorSequence.walsh(6)
    a = run_suite(gen, np.random.default_rng(0))
    b = run_suite(gen, np.random.default_rng(0))
    assert a == b
    assert all(r.passed for r in a)


@functools.lru_cache(maxsize=None)
def _suite_under_blas_threads(depth, seed, threads):
    """run_suite on cycle:2,3 in a fresh interpreter with `threads` BLAS workers."""
    script = (
        "import pickle, sys\n"
        "import numpy as np\n"
        "from vilenkin import GeneratorSequence\n"
        "from vilenkin.identities import run_suite\n"
        f"gen = GeneratorSequence.cycle([2, 3], {depth})\n"
        f"reports = run_suite(gen, np.random.default_rng({seed}))\n"
        "sys.stdout.buffer.write(pickle.dumps(reports))\n"
    )
    src = str(Path(vilenkin.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        check=True, timeout=300,
    )
    return pickle.loads(out.stdout)


@pytest.mark.parametrize("workers", [2, 3, 4, 7])
def test_suite_reports_equal_for_any_worker_count(workers):
    # The only worker pool left is the BLAS one: its size must not move a report.
    one = _suite_under_blas_threads(5, 9, 1)
    assert len(one) == 109
    assert _suite_under_blas_threads(5, 9, workers) == one


def test_suite_thread_count_invariant():
    a = _suite_under_blas_threads(6, 5, 1)
    assert a == run_suite(GeneratorSequence.cycle([2, 3], 6), np.random.default_rng(5))
    assert _suite_under_blas_threads(6, 5, 8) == a


def _vanishing_by_digit_loop(n, s, t, gen):
    """(count, deviation) by expanding every depth-(n+1) cell's digits."""
    kern = fejer_kernel(s * gen.scale[n], gen).values
    dev, count = 0.0, 0
    for i in range(gen.scale[n + 1]):
        d = to_digits(i, gen).digits
        if any(d[j] for j in range(t)) or d[t] == 0:
            continue
        if not any(d[j] for j in range(t + 1, n)):
            continue
        count += 1
        dev = max(dev, abs(kern[i]))
    return count, dev


@pytest.mark.parametrize(
    "gen",
    [GeneratorSequence.walsh(6), GeneratorSequence((2, 2, 2, 2, 3, 4)),
     GeneratorSequence.cycle([2, 3, 4], 5), GeneratorSequence((2, 67, 2)),
     GeneratorSequence.constant(3, 5)],
    ids=str,
)
def test_kernel_vanishing_matches_digit_loop(gen):
    for n in range(1, gen.depth - 1 + 1):
        for s in range(1, gen.m[n]):
            for t in range(n):
                count, dev = _vanishing_by_digit_loop(n, s, t, gen)
                r = check_kernel_vanishing(n, s, t, gen)
                if count == 0:
                    assert r.kind == "vacuous" and r.passed, (n, s, t)
                else:
                    assert r.note == f"cells={count}", (n, s, t)
                    assert r.value == float(dev), (n, s, t)


def _digit_expansion_by_single_kernels(n, gen):
    """The identity's deviation with every kernel synthesized on its own."""
    digits = to_digits(n, gen).digits
    terms = [(j, d) for j, d in reversed(list(enumerate(digits))) if d]
    prefix = np.ones(gen.size, dtype=np.complex128)
    rhs = np.zeros(gen.size, dtype=np.complex128)
    tail = n
    for k, (pos, dig) in enumerate(terms):
        piece = dig * gen.scale[pos]
        tail -= piece
        rhs += prefix * piece * fejer_kernel(piece, gen).values
        if k < len(terms) - 1:
            rhs += prefix * tail * dirichlet(piece, gen).values
        prefix = prefix * rademacher(pos, gen).values ** dig
    return float(np.max(np.abs(n * fejer_kernel(n, gen).values - rhs)))


@pytest.mark.parametrize(
    "gen",
    [GeneratorSequence.walsh(6), GeneratorSequence((2, 2, 2, 2, 3, 4)),
     GeneratorSequence.cycle([2, 3, 4], 5), GeneratorSequence((2, 67, 2))],
    ids=str,
)
def test_kernel_digit_expansion_matches_single_kernel_loop(gen):
    for n in range(1, gen.size):
        expected = _digit_expansion_by_single_kernels(n, gen)
        assert check_kernel_digit_expansion(n, gen).value == expected, n


def test_deviation_scales_with_grid_not_n():
    # identity error stays near machine epsilon * M_N^2 as depth grows
    for depth in (6, 8, 10):
        gen = GeneratorSequence.walsh(depth)
        worst = max(
            check_kernel_digit_expansion(n, gen).value for n in (5, 11, 21)
        )
        assert worst < 1e-9 * gen.size


# --- one kernel table per run ------------------------------------------------

TABLE_GENERATORS = [
    GeneratorSequence.cycle([2, 3, 4], 6),
    GeneratorSequence((2, 2, 2, 3, 2, 4)),
    GeneratorSequence.walsh(10),
    GeneratorSequence.constant(3, 5),
]


def _standalone_suite(gen, seed):
    """run_suite's checks in its order, each called alone on its own kernels."""
    N, M = gen.depth, gen.scale
    patterns = _random_block_patterns(gen, np.random.default_rng(seed), 20)
    reports = [check_dirichlet_at_scale(n, gen) for n in range(N + 1)]
    reports += [check_dirichlet_scaled(n, s, gen)
                for n in range(N) for s in range(1, gen.m[n])]
    reports += [check_dirichlet_shift(a, gen) for a in range(N) if 2 * M[a] <= gen.size]
    reports += [check_kernel_block_decomposition(n, s, gen)
                for n in range(min(N - 1, 5) + 1) for s in range(1, gen.m[n])]
    reports += [check_kernel_lower_bound(n, s, gen)
                for n in range(1, min(N - 1, 6) + 1) for s in range(1, gen.m[n])]
    reports += [check_kernel_vanishing(n, s, t, gen)
                for n in range(2, min(N - 1, 5) + 1)
                for s in range(1, gen.m[n]) for t in range(n - 1)]
    for n in range(1, M[4]):
        reports += [check_kernel_digit_expansion(n, gen), check_digit_tail_bound(n, gen)]
    reports += [check_block_pattern_lower_bound(p, gen) for p in patterns]
    return reports


def _value_bits(reports):
    return [np.float64(r.value).tobytes() for r in reports]


@pytest.mark.parametrize("gen", TABLE_GENERATORS, ids=str)
def test_suite_reports_equal_standalone_checks(gen):
    suite = run_suite(gen, np.random.default_rng(3))
    alone = _standalone_suite(gen, 3)
    assert suite == alone
    assert _value_bits(suite) == _value_bits(alone)


class _CountingTable(identities._KernelTable):
    built = 0

    def __init__(self, gen, keys):
        type(self).built += 1
        super().__init__(gen, keys)


@pytest.mark.parametrize("gen", TABLE_GENERATORS, ids=str)
def test_suite_reports_do_not_depend_on_the_table_budget(gen, monkeypatch):
    monkeypatch.setattr(identities, "_KernelTable", _CountingTable)
    runs = {}
    for budget in (1, 1 << 40):
        monkeypatch.setattr(identities, "_TABLE_BYTES", budget)
        _CountingTable.built = 0
        runs[budget] = run_suite(gen, np.random.default_rng(4))
        runs[budget, "tables"] = _CountingTable.built
    assert runs[1] == runs[1 << 40]
    assert _value_bits(runs[1]) == _value_bits(runs[1 << 40])
    # One byte: a table for each check (a tail bound reads none, but gets one).
    assert runs[1, "tables"] == len(runs[1])
    assert runs[1 << 40, "tables"] == 1


@pytest.mark.parametrize(
    "gen",
    [GeneratorSequence.walsh(5), GeneratorSequence.cycle([2, 3, 4], 3),
     GeneratorSequence.constant(3, 3), GeneratorSequence((4, 2, 2)),
     GeneratorSequence((5, 2, 3))],
    ids=str,
)
def test_table_rows_byte_equal_to_single_kernels(gen):
    ns = range(1, gen.size + 1)
    keys = ({("D", n) for n in ns} | {("K", n) for n in ns}
            | {("psi", n) for n in range(gen.size)}
            | {("r", k, d) for k in range(gen.depth) for d in range(gen.m[k])})
    table = identities._KernelTable(gen, keys)
    assert set(table) == keys
    real = set(gen.m) == {2}
    for n in ns:  # K_1 = 0 included
        for kind, kernel in (("D", dirichlet), ("K", fejer_kernel)):
            row = table[kind, n]
            assert row.dtype == (np.float64 if real else np.complex128)
            assert row.astype(np.complex128).tobytes() == kernel(n, gen).values.tobytes()
    assert not table["K", 1].any()
    for n in range(gen.size):
        assert table["psi", n].tobytes() == vilenkin_fn(n, gen).values.tobytes()
    for k in range(gen.depth):
        for d in range(gen.m[k]):
            assert table["r", k, d].tobytes() == (rademacher(k, gen).values ** d).tobytes()


def test_suite_peak_allocation_on_a_chunked_grid(monkeypatch):
    gen = GeneratorSequence.constant(3, 7)  # 2187 cells: 35 KiB a complex row
    rng = np.random.default_rng(0)
    run_suite(gen, rng)  # fills the caches
    monkeypatch.setattr(identities, "_KernelTable", _CountingTable)
    _CountingTable.built = 0
    tracemalloc.start()
    try:
        run_suite(gen, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _CountingTable.built > 1  # 30 tables of at most 512 KiB of rows
    # Measured with warm caches, numpy 2.4.6: 525 KiB before kernel tables,
    # when every check synthesized its own rows; 706 KiB with 512 KiB tables
    # (1228 KiB with 1 MiB tables, 599 KiB with one check a table).  So the
    # peak stays above the old one; this bound catches further growth.
    assert peak <= 750 * 1024
