"""The four benchmark workloads: seeded inputs, one job, independent oracles.

Each workload is a closed loop with one client: ``make_inputs`` draws the
inputs of job ``i`` from the run's seed, ``run`` executes the job against
the library (the only timed part), and ``check`` compares its outputs with
an oracle written here, not taken from the library's own code path.
``check`` returns one (check name, passed) pair per check.

Library functions are always looked up through their modules at call time
(``V.transform.forward_transform``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import vilenkin as V
from vilenkin import cli, funcspace, hardy, transform

REL_TOL = 1e-9
# Sums of sqrt|.| over cells that vanish in exact arithmetic carry round-off of
# order sqrt(machine epsilon) per such cell; library and oracle differ by up to
# 6e-9 relative on the divergence inputs.
SQRT_SUM_TOL = 1e-7


def _rng(seed: int, index: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, index, salt])


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol * max(1.0, abs(b))


def _max_rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def run_cli(argv: list[str], outdir: Path, threads: str | None = None) -> dict:
    """Run one CLI subcommand in-process; return its exit code, stdout and files."""
    if outdir.exists():
        shutil.rmtree(outdir)
    saved = os.environ.get("VILENKIN_THREADS")
    if threads is not None:
        os.environ["VILENKIN_THREADS"] = threads
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--out", str(outdir)])
    finally:
        if saved is None:
            os.environ.pop("VILENKIN_THREADS", None)
        else:
            os.environ["VILENKIN_THREADS"] = saved
    files = {p.name: p.read_bytes() for p in sorted(outdir.glob("*"))} if outdir.exists() else {}
    shutil.rmtree(outdir, ignore_errors=True)
    return {"exit": code, "stdout": out.getvalue(), "files": files}


def scale_factors(m: tuple[int, ...]) -> list[int]:
    """M_0, ..., M_N computed here, independently of the library."""
    out = [1]
    for b in m:
        out.append(out[-1] * b)
    return out


def csv_rows(data: bytes) -> list[list[str]]:
    lines = data.decode().splitlines()
    return [line.split(",") for line in lines[1:]]


def fingerprint(outputs: dict) -> dict:
    """Outputs reduced to bytes, for the byte-identity determinism checks."""
    out = {}
    for key, val in outputs.items():
        if isinstance(val, dict):
            for sub, v in fingerprint(val).items():
                out[f"{key}/{sub}"] = v
        elif isinstance(val, np.ndarray):
            out[key] = val.tobytes()
        elif isinstance(val, bytes):
            out[key] = val
        else:
            out[key] = repr(val).encode()
    return out


@dataclass
class Workload:
    name: str
    tiny: bool = False
    cold_caches = False  # True: clear the library's caches before every job

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def determinism(self, inp: dict, out: dict) -> list[tuple[str, bool]]:
        """Extra byte-identity checks that rerun part of a job; none by default."""
        return []

    def properties(self) -> dict:
        raise NotImplementedError


# --- verify_mixed -------------------------------------------------------------


def expected_verify_rows(m: tuple[int, ...], block_samples: int = 20) -> int:
    """Number of checks run_suite schedules for generator m, counted by hand."""
    N = len(m)
    M = scale_factors(m)
    rows = N + 1
    rows += sum(m[n] - 1 for n in range(N))
    rows += sum(1 for a in range(N) if 2 * M[a] <= M[N])
    rows += sum(m[n] - 1 for n in range(min(N - 1, 5) + 1))
    rows += sum(m[n] - 1 for n in range(1, min(N - 1, 6) + 1))
    rows += sum((m[n] - 1) * (n - 1) for n in range(2, min(N - 1, 5) + 1))
    if N >= 4:
        rows += 2 * (M[4] - 1)
    if N - 2 >= 4:
        rows += block_samples
    return rows


class VerifyMixed(Workload):
    """verify + kernels + lebesgue + variation on a fresh mixed-radix generator.

    The generators are the 60 distinct orderings of the radices in RADICES
    (M_N = 192 or 240; every radix 2, 3, 4, 5 is used), in an order drawn
    from the seed; job i takes entry i mod 60.  Six digits are the fewest at
    which ``verify`` runs all nine check families.  A job's cost depends on
    the ordering (``verify`` checks 2(M_4 - 1) rows for the lowest four
    digits, and M_4 ranges from 16 to 60), so every run cycles through the
    same set and the job-time median does not depend on which orderings a
    seed happens to draw.  The library's caches are cleared before every
    job, so each job pays for its generator's set-up.
    """

    cold_caches = True
    RADICES = ((2, 2, 2, 2, 3, 4), (2, 2, 2, 2, 3, 5))
    TINY_RADICES = ((2, 2, 2, 3), (2, 2, 2, 2, 3))
    THREADS_CHECK_EVERY = 8

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        orderings = sorted({m for r in (self.TINY_RADICES if self.tiny else self.RADICES)
                            for m in itertools.permutations(r)})
        self.gens = [orderings[k] for k in _rng(seed, 0, 5).permutation(len(orderings))]

    def make_inputs(self, i: int) -> dict:
        m = self.gens[i % len(self.gens)]
        seed = int(_rng(self.seed, i, 1).integers(1 << 30))
        return {"m": m, "spec": ",".join(map(str, m)), "seed": seed, "index": i}

    def run(self, inp: dict) -> dict:
        base = ["--generator", inp["spec"]]
        out = self.workdir / "cli"
        return {
            "verify": run_cli(["verify", *base, "--seed", str(inp["seed"])], out, threads="2"),
            "kernels": run_cli(["kernels", *base, "--nmax", "16"], out),
            "lebesgue": run_cli(["lebesgue", *base], out),
            "variation": run_cli(["variation", *base], out),
        }

    def check(self, inp: dict, out: dict) -> list[tuple[str, bool]]:
        m = inp["m"]
        size = math.prod(m)
        res = [(f"{sub}.exit0", out[sub]["exit"] == 0) for sub in out]
        verify = csv_rows(out["verify"]["files"].get("verify.csv", b"\n"))
        res.append(("verify.rows", len(verify) == expected_verify_rows(m)))
        res.append(("verify.all_passed", bool(verify) and all(r[-1] == "true" for r in verify)))
        nmax = min(size, 16)
        for name in ("dirichlet.csv", "fejer.csv"):
            rows = csv_rows(out["kernels"]["files"].get(name, b"\n"))
            res.append((f"kernels.{name}.rows", len(rows) == nmax * size))
        # D_1 = psi_0 = 1 everywhere.
        d1 = csv_rows(out["kernels"]["files"].get("dirichlet.csv", b"\n"))[:size]
        res.append(("kernels.D1_is_one", len(d1) == size and all(
            float(r[2]) == 1.0 and float(r[3]) == 0.0 for r in d1)))
        leb = csv_rows(out["lebesgue"]["files"].get("lebesgue.csv", b"\n"))
        res.append(("lebesgue.rows", len(leb) == min(size, 64)))
        # ||D_{M_k}||_1 = 1 at every scale M_k.
        scales = set(scale_factors(m))
        res.append(("lebesgue.L_Mk_is_one", all(
            _close(float(r[1]), 1.0) for r in leb if int(r[0]) in scales)))
        var = csv_rows(out["variation"]["files"].get("variation.csv", b"\n"))
        res.append(("variation.rows", len(var) == len(m)))
        return res

    def determinism(self, inp: dict, out: dict) -> list[tuple[str, bool]]:
        """verify.csv must not depend on the worker-thread count (every 8th job)."""
        if inp["index"] % self.THREADS_CHECK_EVERY:
            return []
        one = run_cli(["verify", "--generator", inp["spec"], "--seed", str(inp["seed"])],
                      self.workdir / "cli", threads="1")
        return [("threads_1_vs_2", one["files"] == out["verify"]["files"] and one["exit"] == out["verify"]["exit"])]

    def properties(self) -> dict:
        return {"M_N": sorted({math.prod(m) for m in self.gens}),
                "radices": sorted({b for m in self.gens for b in m}), "generators": len(self.gens),
                "generator_reused": False,
                "share_rows_beyond_support": None}


# --- divergence ---------------------------------------------------------------


class Divergence(Workload):
    """CLI counterexample plus the fejer_weighted strong sum on its function."""

    # Weight families for which the construction diverges (growth ratio > 2)
    # whenever the first rank is 1 or 2 and the last is depth - 1; "log" is
    # left out because it sits at the bounded/diverging edge.
    PHIS = ("const:1", "const:3", "logpow:0.25", "logpow:0.5", "loglog")

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        self.depth = 6 if self.tiny else 9
        self.gen = V.GeneratorSequence.walsh(self.depth)

    def make_inputs(self, i: int) -> dict:
        rng = _rng(self.seed, i, 2)
        top = self.depth - 1  # 2 M_top = M_N: the spectrum reaches the top
        first = int(rng.integers(1, 3))
        middle = sorted(rng.choice(np.arange(first + 1, top), size=int(rng.integers(1, 3)), replace=False))
        alphas = [first, *map(int, middle), top]
        return {"phi": str(rng.choice(self.PHIS)), "alphas": alphas}

    def run(self, inp: dict) -> dict:
        argv = ["counterexample", "--generator", "constant:2", "--depth", str(self.depth),
                "--phi", inp["phi"], "--alphas", ",".join(map(str, inp["alphas"]))]
        res = run_cli(argv, self.workdir / "cli")
        ce = hardy.counterexample_martingale(cli.parse_phi(inp["phi"]), inp["alphas"], self.gen)
        weighted = hardy.strong_sums(ce.function, self.gen.size, mode="fejer_weighted")
        return {"cli": res, "function": ce.function.values, "fejer_weighted": weighted}

    def spectrum(self, inp: dict) -> np.ndarray:
        """Block profile M_a * phi(2 M_a) / log M_a on [M_a, 2 M_a), zero elsewhere."""
        phi = cli.parse_phi(inp["phi"])
        coeffs = np.zeros(self.gen.size)
        for a in inp["alphas"]:
            Ma = 2**a
            coeffs[Ma : 2 * Ma] = Ma * phi(2 * Ma) / math.log(Ma)
        return coeffs

    def fejer_weighted(self, coeffs: np.ndarray) -> float:
        """(1/(n log n)) sum_k mean sqrt(sup_r |E_r sigma_k f|) over k = 1..n, n = M_N.

        sigma_k f has coefficients max(k - 1 - j, 0)/k * c_j; all n means are
        synthesized at once by np.fft.
        """
        n = self.gen.size
        k = np.arange(1, n + 1)[:, None]
        weights = np.clip((k - 1 - np.arange(n)[None, :]) / k, 0.0, None)
        star = maximal_function(synthesize_fft(weights * coeffs, self.gen.m), self.gen.m)
        return float(np.sum(np.mean(np.sqrt(star), axis=-1)) / (n * math.log(n)))

    def check(self, inp: dict, out: dict) -> list[tuple[str, bool]]:
        res = [("exit0", out["cli"]["exit"] == 0)]
        summary = out["cli"]["files"].get("summary.txt", b"").decode()
        res.append(("regime_diverging", "regime=diverging" in summary.split()))
        rows = csv_rows(out["cli"]["files"].get("counterexample.csv", b"\n"))
        res.append(("rows", len(rows) == len(inp["alphas"])))
        f = V.GridFunction(self.gen, out["function"])
        for row in rows:
            n = int(row[4])
            sigma = transform.fejer_mean(f, n)
            direct = math.sqrt(funcspace.lp_quasinorm(sigma, 0.5))
            res.append((f"norm_sigma@{n}", _close(float(row[7]), direct)))
        coeffs = self.spectrum(inp)
        res.append(("function_closed_form",
                     _max_rel(out["function"], synthesize_fft(coeffs, self.gen.m)) <= REL_TOL))
        res.append(("fejer_weighted_oracle", _close(out["fejer_weighted"], self.fejer_weighted(coeffs),
                                                             SQRT_SUM_TOL)))
        return res

    def properties(self) -> dict:
        # The top block [M_{N-1}, 2 M_{N-1}) ends at M_N: only S_{M_N} f equals f.
        n = self.gen.size
        return {"M_N": n, "radices": [2], "generator_reused": True,
                "share_rows_beyond_support": 1 / n}


# --- finite_spectrum ----------------------------------------------------------


def walsh_characters(depth: int, count: int) -> np.ndarray:
    """psi_j(x) = (-1)^popcount(j & x) for j < count, from the bits directly."""
    x = np.arange(1 << depth)
    out = np.empty((count, x.size))
    for j in range(count):
        parity = np.zeros(x.size, dtype=np.int64)
        bits = x & j
        while np.any(bits):
            parity ^= bits & 1
            bits >>= 1
        out[j] = 1 - 2 * parity
    return out


class FiniteSpectrum(Workload):
    """strong_sums simon and gat on a Walsh function with spectrum below K <= 8."""

    P = 0.5

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        self.depth = 6 if self.tiny else 8
        self.gen = V.GeneratorSequence.walsh(self.depth)
        self.psi = walsh_characters(self.depth, 8)
        self.ks: list[int] = []

    def make_inputs(self, i: int) -> dict:
        rng = _rng(self.seed, i, 3)
        K = int(rng.integers(2, 9))
        coeffs = rng.normal(size=K) + 1j * rng.normal(size=K)
        coeffs[K - 1] = 1.0 + abs(coeffs[K - 1])  # f_hat(K - 1) != 0
        self.ks.append(K)
        return {"K": K, "coeffs": coeffs}

    def run(self, inp: dict) -> dict:
        f = transform.synthesize(self.gen, inp["coeffs"])
        n = self.gen.size
        return {"simon": hardy.strong_sums(f, n, p=self.P, mode="simon"),
                "gat": hardy.strong_sums(f, n, mode="gat")}

    def closed_form(self, inp: dict) -> tuple[float, float]:
        """S_k f = f for k >= K, so both sums are K - 1 explicit terms plus a tail."""
        K, c, p, n = inp["K"], inp["coeffs"], self.P, self.gen.size
        partial = np.cumsum(c[:, None] * self.psi[:K], axis=0)  # row k-1 is S_k f
        f = partial[K - 1]
        simon = sum(np.mean(np.abs(partial[k - 1]) ** p) / k ** (2 - p) for k in range(1, K))
        tail = np.arange(K, n + 1, dtype=float)
        simon += np.mean(np.abs(f) ** p) * math.fsum(tail ** (p - 2))
        gat = sum(np.mean(np.abs(partial[k - 1] - f)) / k for k in range(1, K)) / math.log(n)
        return float(simon), float(gat)

    def check(self, inp: dict, out: dict) -> list[tuple[str, bool]]:
        simon, gat = self.closed_form(inp)
        return [("simon_closed_form", _close(out["simon"], simon)),
                ("gat_closed_form", _close(out["gat"], gat))]

    def properties(self) -> dict:
        n = self.gen.size
        shares = [(n - K + 1) / n for K in self.ks]
        return {"M_N": n, "radices": [2], "generator_reused": True,
                "share_rows_beyond_support": min(shares) if shares else None}


# --- large_grid ---------------------------------------------------------------


class LargeGrid(Workload):
    """Transforms, means and quasi-norms on a vector larger than L2, plus weak_lp.

    The grid is cycle:2,3,4 to depth 11 with one more radix-2 digit on top:
    M_N = 165 888, a 2.5 MiB complex vector, mixed-radix like the grids a
    fused-radix axis pass targets.
    """

    M = (2, 3, 4, 2, 3, 4, 2, 3, 4, 2, 3, 2)
    TINY_M = (2, 3, 4, 2)

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        self.gen = V.GeneratorSequence(self.TINY_M if self.tiny else self.M)
        self.weak_gen = V.GeneratorSequence.walsh(8 if self.tiny else 11)

    def make_inputs(self, i: int) -> dict:
        rng = _rng(self.seed, i, 4)
        gen = self.gen
        vals = rng.normal(size=gen.size) + 1j * rng.normal(size=gen.size)
        weak = rng.normal(size=self.weak_gen.size) + 1j * rng.normal(size=self.weak_gen.size)
        return {"f": V.GridFunction(gen, vals), "fejer_n": int(rng.integers(1, gen.size + 1)),
                "rank": int(rng.integers(1, gen.depth)), "weak": V.GridFunction(self.weak_gen, weak)}

    def run(self, inp: dict) -> dict:
        f = inp["f"]
        spec = transform.forward_transform(f)
        return {
            "forward": spec.coeffs,
            "inverse": transform.inverse_transform(spec).values,
            "fejer_mean": transform.fejer_mean(f, inp["fejer_n"]).values,
            "partial_sum": transform.partial_sum(f, f.gen.scale[inp["rank"]]).values,
            "lp": funcspace.lp_quasinorm(f, 0.5),
            "hardy": hardy.function_hardy_quasinorm(f, 0.5),
            "weak_lp": funcspace.weak_lp(inp["weak"], 0.5),
        }

    def check(self, inp: dict, out: dict) -> list[tuple[str, bool]]:
        gen, vals = self.gen, inp["f"].values
        ref = np.fft.fftn(vals.reshape(tuple(reversed(gen.m)))).reshape(-1) / gen.size
        res = [("forward_vs_fftn", _max_rel(out["forward"], ref) <= REL_TOL),
               ("round_trip", _max_rel(out["inverse"], vals) <= REL_TOL)]
        power = np.abs(ref) ** 2
        res.append(("parseval", _close(float(np.sum(power)), float(np.mean(np.abs(vals) ** 2)))))
        # sigma_n f has coefficients w_j c_j with w_j = max(n - 1 - j, 0) / n:
        # both <sigma_n f, sigma_n f> and <sigma_n f, f> follow from Parseval.
        n = inp["fejer_n"]
        w = np.clip((n - 1 - np.arange(gen.size)) / n, 0.0, None)
        sigma = out["fejer_mean"]
        res.append(("fejer_mean_energy", _close(float(np.mean(np.abs(sigma) ** 2)),
                                                float(np.sum(w**2 * power)))))
        res.append(("fejer_mean_vs_f", _close(float(np.mean(sigma * np.conj(vals)).real),
                                              float(np.sum(w * power)))))
        # S_{M_r} f is the average of f over depth-r cylinders.
        Mr = gen.scale[inp["rank"]]
        avg = np.tile(vals.reshape(-1, Mr).mean(axis=0), gen.size // Mr)
        res.append(("partial_sum_is_cylinder_mean", _max_rel(out["partial_sum"], avg) <= REL_TOL))
        res.append(("lp", _close(out["lp"], float(np.mean(np.sqrt(np.abs(vals))) ** 2))))
        res.append(("hardy", _close(out["hardy"], maximal_quasinorm(vals, gen.m, 0.5))))
        res.append(("weak_lp", _close(out["weak_lp"], weak_lp_sorted(inp["weak"].values, 0.5))))
        return res

    def properties(self) -> dict:
        return {"M_N": self.gen.size, "radices": list(self.gen.m),
                "vector_mib": self.gen.size * 16 / 2**20,
                "weak_lp_M_N": self.weak_gen.size, "generator_reused": True,
                "share_rows_beyond_support": None}


def synthesize_fft(coeffs: np.ndarray, m: tuple[int, ...]) -> np.ndarray:
    """sum_j c_j psi_j on the grid by np.fft.ifftn over the digit axes.

    The last axis of ``coeffs`` is the frequency index; leading axes are a batch.
    """
    lead = coeffs.shape[:-1]
    axes = tuple(range(len(lead), len(lead) + len(m)))
    grid = np.fft.ifftn(coeffs.reshape(lead + tuple(reversed(m))), axes=axes)
    return grid.reshape(lead + (-1,)) * math.prod(m)


def maximal_function(vals: np.ndarray, m: tuple[int, ...]) -> np.ndarray:
    """sup_n |E_n f| on the grid, with the cylinder averages built coarse-to-fine.

    Index i lies in the depth-n cylinder of i mod M_n, so the rank-n averages
    form a vector of length M_n; the maximal function is grown one digit at a
    time in O(M_N) total.  The last axis is the grid; leading axes are a batch.
    """
    levels = [vals]
    for b in reversed(m):
        levels.append(levels[-1].reshape(vals.shape[:-1] + (b, -1)).mean(axis=-2))
    levels.reverse()  # levels[n] has length M_n
    star = np.abs(levels[0])
    for n, b in enumerate(m):
        star = np.maximum(np.tile(star, b), np.abs(levels[n + 1]))
    return star


def maximal_quasinorm(vals: np.ndarray, m: tuple[int, ...], p: float) -> float:
    """||sup_n |E_n f| ||_p."""
    return float(np.mean(maximal_function(vals, m) ** p) ** (1.0 / p))


def weak_lp_sorted(vals: np.ndarray, p: float) -> float:
    """max_v v^p mu{|f| >= v} over the distinct magnitudes, via one sort."""
    mag = np.sort(np.abs(vals))[::-1]
    distinct_last = np.r_[mag[1:] != mag[:-1], True]  # last index of each value
    counts = np.arange(1, mag.size + 1)[distinct_last]
    v = mag[distinct_last]
    keep = v > 0
    return float(np.max(v[keep] ** p * counts[keep] / mag.size, initial=0.0))


WORKLOADS = {
    "verify_mixed": VerifyMixed,
    "divergence": Divergence,
    "finite_spectrum": FiniteSpectrum,
    "large_grid": LargeGrid,
}


def make(name: str, tiny: bool = False) -> Workload:
    return WORKLOADS[name](name, tiny)
