"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

The suite exercises the full stack at desk scale: exact kernel identities,
pointwise inequalities, transform correctness and speed, the block-atom
divergence construction, the weighted boundedness contrast, strong-sum
convergence, and bitwise determinism.  Two clauses are known to be out of
reach at any feasible grid size; those tests state the measured values in
their failure messages instead of weakening the thresholds.
"""

import time

import numpy as np
import pytest

from vilenkin import (
    GeneratorSequence,
    GridFunction,
    dirichlet,
    forward_transform,
    inverse_transform,
    naive_forward_transform,
    partial_sum,
    synthesize,
    vilenkin_fn,
)
from vilenkin.cli import main as cli_main
from vilenkin.hardy import (
    counterexample_martingale,
    is_p_atom,
    sigma_norm_profile,
    strong_sums,
)
from vilenkin.identities import (
    _random_block_patterns,
    check_block_pattern_lower_bound,
    check_dirichlet_at_scale,
    check_dirichlet_scaled,
    check_dirichlet_shift,
    check_kernel_block_decomposition,
    check_kernel_digit_expansion,
    check_kernel_lower_bound,
    run_suite,
)

SWEEP = [
    GeneratorSequence.walsh(8),
    GeneratorSequence.constant(3, 8),
    GeneratorSequence.cycle([2, 3, 4], 8),
]

ONE = lambda n: 1.0  # noqa: E731

# Weighted block-mean profiles for the depth-12 divergence run, recorded from
# the first accepted execution; later runs must reproduce them.
DIVERGENCE_GOLDENS = [
    0.4536704318806562,
    0.83033633916189098,
    1.1004271406867534,
    1.3297815026336901,
    1.5343383483441777,
    1.7155207155297785,
    1.8802966652134876,
    2.0336196326750628,
]


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"criterion {tag}: {'PASS' if ok else 'FAIL'} - {detail}")


def divergence_profile():
    gen = GeneratorSequence.walsh(12)
    ce = counterexample_martingale(ONE, range(4, 12), gen)
    profile = sigma_norm_profile(ce.function, gen.size)
    cumulative = np.cumsum(profile)
    ends = [2 * gen.scale[a] for a in ce.alphas]
    t_values = [float(cumulative[n - 1] / n) for n in ends]
    return gen, ce, cumulative, t_values


def test_criterion_1_exact_identities():
    start = time.perf_counter()
    worst = 0.0
    for gen in SWEEP:
        for n in range(gen.depth + 1):
            worst = max(worst, check_dirichlet_at_scale(n, gen).value)
        for n in range(gen.depth):
            for s in range(1, gen.m[n]):
                worst = max(worst, check_dirichlet_scaled(n, s, gen).value)
        for alpha in range(gen.depth):
            if 2 * gen.scale[alpha] <= gen.size:
                worst = max(worst, check_dirichlet_shift(alpha, gen).value)
        for n in range(min(gen.depth - 1, 5) + 1):
            for s in range(1, gen.m[n]):
                worst = max(
                    worst, check_kernel_block_decomposition(n, s, gen).value
                )
        for n in range(1, gen.scale[4]):
            worst = max(worst, check_kernel_digit_expansion(n, gen).value)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 60
    report("1", ok, f"max deviation {worst:.3g}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed <= 60


def test_criterion_2_inequalities():
    start = time.perf_counter()
    margins = []
    for gen in SWEEP:
        for n in range(1, min(gen.depth - 1, 6) + 1):
            for s in range(1, gen.m[n]):
                margins.append(check_kernel_lower_bound(n, s, gen).value)
        rng = np.random.default_rng(20260824)
        for pattern in _random_block_patterns(gen, rng, 30):
            margins.append(check_block_pattern_lower_bound(pattern, gen).value)
    deep = GeneratorSequence.walsh(10)
    for pattern in ([(4, 4)], [(4, 5), (8, 8)], [(5, 6)], [(4, 4), (7, 8)]):
        margins.append(check_block_pattern_lower_bound(pattern, deep).value)
    elapsed = time.perf_counter() - start
    worst = min(margins)
    ok = worst >= 0 and elapsed <= 120
    report("2", ok, f"min margin {worst:.3g} over {len(margins)} cells, {elapsed:.1f}s")
    assert worst >= 0
    assert elapsed <= 120


def test_criterion_3_transform():
    rng = np.random.default_rng(3)
    worst_pair = 0.0
    for gen in SWEEP:
        f = GridFunction(
            gen, rng.normal(size=gen.size) + 1j * rng.normal(size=gen.size)
        )
        fast = forward_transform(f).coeffs
        ref = naive_forward_transform(f).coeffs
        worst_pair = max(
            worst_pair,
            float(np.max(np.abs(fast - ref)) / max(1.0, np.max(np.abs(ref)))),
        )
    deep = GeneratorSequence.walsh(10)
    f = GridFunction(
        deep, rng.normal(size=deep.size) + 1j * rng.normal(size=deep.size)
    )
    round_trip = float(
        np.max(np.abs(inverse_transform(forward_transform(f)).values - f.values))
    )
    worst_gram = 0.0
    for m in ((2, 2, 2), (3, 3, 3), (2, 3, 4)):
        gen = GeneratorSequence(m)
        mat = np.stack([vilenkin_fn(n, gen).values for n in range(gen.size)])
        gram = mat @ mat.conj().T / gen.size
        worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(gen.size)))))

    big = GeneratorSequence.walsh(13)
    g = GridFunction(
        big, rng.normal(size=big.size) + 1j * rng.normal(size=big.size)
    )
    forward_transform(g)  # warm the per-digit matrix cache
    start = time.perf_counter()
    reps = 5
    for _ in range(reps):
        forward_transform(g)
    per_transform = (time.perf_counter() - start) / reps
    ok = (
        worst_pair <= 1e-10
        and round_trip <= 1e-10
        and worst_gram <= 1e-10
        and per_transform <= 0.050
    )
    report(
        "3",
        ok,
        f"fast-vs-naive {worst_pair:.3g}, round-trip {round_trip:.3g}, "
        f"gram {worst_gram:.3g}, {per_transform * 1e3:.2f}ms/transform",
    )
    assert worst_pair <= 1e-10
    assert round_trip <= 1e-10
    assert worst_gram <= 1e-10
    assert per_transform <= 0.050


def test_criterion_4_counterexample_mechanics():
    gen = GeneratorSequence.walsh(9)
    ce = counterexample_martingale(ONE, [4, 6, 8], gen)
    for atom in ce.atoms():
        ok, checks = is_p_atom(atom.values, atom.rank, atom.base, 0.5)
        assert ok, checks
    coeff_dev = float(
        np.max(
            np.abs(forward_transform(ce.function).coeffs - ce.closed_form_coefficients())
        )
    )
    assert coeff_dev <= 1e-9

    worst = 0.0
    for k, alpha in enumerate(ce.alphas):
        Ma = gen.scale[alpha]
        frozen = partial_sum(ce.function, Ma)
        psi = vilenkin_fn(Ma, gen)
        for j in range(Ma, 2 * Ma):
            direct = partial_sum(ce.function, j)
            closed = frozen
            if j > Ma:
                closed = frozen + ce.lambdas[k] * Ma * (psi * dirichlet(j - Ma, gen))
            worst = max(worst, float(np.max(np.abs(direct.values - closed.values))))
    ok = worst <= 1e-9
    report("4", ok, f"coefficient dev {coeff_dev:.3g}, partial-sum dev {worst:.3g}")
    assert worst <= 1e-9


def test_criterion_5_divergence():
    start = time.perf_counter()
    gen, ce, cumulative, t_values = divergence_profile()
    elapsed = time.perf_counter() - start
    increasing = all(b > a for a, b in zip(t_values[2:], t_values[3:]))
    roots = np.sqrt(np.arange(4, 12, dtype=float))
    slope = float(np.polyfit(roots, t_values, 1)[0])
    corr = float(np.corrcoef(roots, t_values)[0, 1])
    golden_dev = max(
        abs(t - g) / g for t, g in zip(t_values, DIVERGENCE_GOLDENS)
    )
    ok = (
        increasing
        and slope > 0
        and corr >= 0.9
        and golden_dev <= 1e-6
        and elapsed <= 600
    )
    report(
        "5",
        ok,
        f"T {t_values[0]:.4f}..{t_values[-1]:.4f}, slope {slope:.3f}, "
        f"corr {corr:.4f}, golden dev {golden_dev:.2g}, {elapsed:.1f}s",
    )
    assert increasing
    assert slope > 0
    assert corr >= 0.9
    assert golden_dev <= 1e-6
    assert elapsed <= 600


def test_criterion_6a_weighted_sums_random_and_contrast():
    gen = GeneratorSequence.walsh(8)
    rng = np.random.default_rng(20260824)
    worst_ratio = 0.0
    for _ in range(20):
        f = GridFunction(
            gen, rng.normal(size=gen.size) + 1j * rng.normal(size=gen.size)
        )
        cumulative = np.cumsum(sigma_norm_profile(f, gen.size, hardy=True))
        ns = np.arange(16, gen.size + 1)
        weighted = cumulative[15:] / (ns * np.log(ns))
        worst_ratio = max(worst_ratio, float(weighted.max() / weighted.min()))

    _, _, _, t_values = divergence_profile()
    growth = t_values[-1] / t_values[0]
    ok = worst_ratio <= 2.0 and growth > 2.0
    report(
        "6a",
        ok,
        f"random weighted ratio {worst_ratio:.3f} <= 2, "
        f"unweighted growth {growth:.2f}x",
    )
    assert worst_ratio <= 2.0
    assert growth > 2.0


def test_criterion_6b_weighted_sum_on_divergent_function():
    gen, ce, _, _ = divergence_profile()
    cumulative = np.cumsum(sigma_norm_profile(ce.function, gen.size, hardy=True))
    ns = np.arange(16, gen.size + 1)
    weighted = cumulative[15:] / (ns * np.log(ns))
    ratio = float(weighted.max() / weighted.min())
    block_ends = np.array([2 * gen.scale[a] for a in ce.alphas])
    end_vals = weighted[block_ends - 16]
    end_ratio = float(end_vals.max() / end_vals.min())
    ok = ratio <= 2.0
    report("6b", ok, f"weighted ratio {ratio:.3g} (block ends {end_ratio:.3f})")
    assert ratio <= 2.0, (
        "the weighted block-mean sum cannot be 2x-flat from n = 16 on this "
        "grid: the function's spectrum starts at M_4 = 16, so every block "
        f"mean below n = 17 is identically zero and the left edge of the "
        f"window carries only rounding noise (measured ratio {ratio:.3g}). "
        f"Restricted to block ends the ratio is {end_ratio:.3f}, still just "
        "above 2 because the first block at n = 32 is not yet in the flat "
        "regime; the sum is visibly flat (0.25..0.27) from the third block on. "
        "Larger depth moves the flat regime earlier but the n = 16 edge "
        "remains exactly zero at every depth."
    )


def test_criterion_7a_constant_character_strong_sum():
    gen = GeneratorSequence.walsh(13)
    psi0 = vilenkin_fn(0, gen)
    at_16 = strong_sums(psi0, 16, mode="gat")
    at_top = strong_sums(psi0, gen.size, mode="gat")
    ok = at_16 <= 1e-12 and at_top <= 1e-12
    report("7a", ok, f"psi_0 averaged error sum {at_16:.2g} -> {at_top:.2g}")
    assert at_16 <= 1e-12
    assert at_top <= 1e-12


def smooth_random_function(gen, seed=7, scale=0.1):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(gen.size, dtype=np.complex128)
    coeffs[: gen.scale[3]] = scale * (
        rng.normal(size=gen.scale[3]) + 1j * rng.normal(size=gen.scale[3])
    )
    return synthesize(gen, coeffs)


def test_criterion_7b_power_weighted_sum_converges():
    gen = GeneratorSequence.walsh(13)
    f = smooth_random_function(gen)
    checkpoints = [16, 256, 4096, gen.size - 1, gen.size]
    values = [strong_sums(f, n, mode="simon") for n in checkpoints]
    monotone = all(b >= a for a, b in zip(values, values[1:]))
    tail = values[-1] - values[-2]
    ok = monotone and tail < 1e-6
    report("7b", ok, f"power-weighted sum {values[0]:.4f}->{values[-1]:.4f}, "
                     f"tail increment {tail:.2g}")
    assert monotone
    assert tail < 1e-6


def test_criterion_7c_averaged_error_sum_decay():
    gen = GeneratorSequence.walsh(13)
    f = smooth_random_function(gen)
    at_16 = strong_sums(f, 16, mode="gat")
    at_top = strong_sums(f, gen.size, mode="gat")
    ratio = at_top / at_16
    ok = ratio <= 0.10
    report("7c", ok, f"averaged error sum decay {ratio:.4f} (target <= 0.10)")
    assert ratio <= 0.10, (
        "the averaged-error sum decays only logarithmically for a function "
        "whose spectrum sits below M_3 = 8: every error term with k >= 8 is "
        "exactly zero, so the value at n is a fixed constant divided by "
        f"log n and the ratio equals log 16 / log M_N = {ratio:.4f} exactly. "
        "Reaching 10% needs log M_N >= 10 log 16, i.e. M_N >= 2^40 cells, "
        "far past any in-memory grid; at the 2^22-cell budget the best "
        "possible ratio is 4/22 = 0.18."
    )


def test_criterion_8_determinism(tmp_path):
    gen = GeneratorSequence.cycle([2, 3], 6)
    assert run_suite(gen, np.random.default_rng(8)) == run_suite(
        gen, np.random.default_rng(8)
    )

    deep = GeneratorSequence.walsh(9)
    ce = counterexample_martingale(ONE, [4, 6], deep)
    first = sigma_norm_profile(ce.function, deep.size)
    second = sigma_norm_profile(ce.function, deep.size)
    assert first.tobytes() == second.tobytes()
    assert strong_sums(ce.function, 64, mode="simon") == strong_sums(
        ce.function, 64, mode="simon"
    )

    def run_cli(base):
        assert cli_main([
            "verify", "--generator", "cycle:2,3", "--depth", "6",
            "--seed", "8", "--out", str(base / "v"),
        ]) == 0
        assert cli_main([
            "counterexample", "--generator", "constant:2", "--depth", "9",
            "--phi", "const:1", "--alphas", "4,6,8",
            "--out", str(base / "c"),
        ]) == 0

    outputs = []
    for name in ("a", "b"):
        base = tmp_path / name
        run_cli(base)
        outputs.append({
            str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()
        })
    identical = outputs[0] == outputs[1]
    report("8", identical, "reruns byte-identical")
    assert identical


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
