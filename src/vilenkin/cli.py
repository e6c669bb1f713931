"""Command-line front end: verification sweeps, kernel dumps, experiments.

COMMANDS gives each subcommand its handler and the flags it reads beyond
--config, --generator, --depth and --out; argparse refuses any other flag.
Flags override a flat key=value config file, which may also hold keys that
only other subcommands read.  All outputs are CSV with
17-significant-digit decimals and LF line endings so reruns are
byte-identical; a field is quoted only when it holds a comma, a quote or a
line break.  ``verify`` runs its checks as one serial sweep in a
fixed order.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import hardy, identities, transform
from .group import GeneratorSequence, variation_table

__all__ = ["main", "ExperimentConfig", "parse_generator", "parse_phi"]

MAX_CELLS = 1 << 22  # memory budget on M_N
# Work budget of `kernels`: lines of each of its two CSVs, nmax * M_N, at
# up to about 60 bytes a line.  Checked before any kernel is synthesized.
MAX_KERNEL_LINES = 1 << 20
# Work budget of `lebesgue`, `counterexample` and `verify`: synthesized
# cells, rows * M_N (D_1..D_nmax, the profile's sigma_1..sigma_{2 M_alpha},
# or the shift checks' D_1..D_{2 M_alpha} over every alpha), checked before
# any synthesis.  The first two make each row on its coarse grid (see
# transform), so for them the count is an upper bound.  On the full grid a
# run at the budget took 3.0-3.5 s (lebesgue on Walsh(20) and Walsh(14);
# counterexample on constant:3 and cycle:2,3,4 at depth 9; 2-core Xeon,
# one BLAS thread); lebesgue on Walsh(20) now takes milliseconds.  The
# largest CI, test or bench config is 2^24 cells (counterexample on
# Walsh(12), ranks up to 11).
MAX_SYNTH_CELLS = 1 << 26

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


class ConfigError(Exception):
    pass


def parse_generator(spec: str, depth: Optional[int]) -> GeneratorSequence:
    """Generator specs: "2,3,4" | "constant:2" | "cycle:2,3,4".

    The named forms require a depth; an explicit list fixes the depth
    itself (a given depth must then agree).
    """
    spec = spec.strip()
    if depth is not None and depth < 0:
        raise ConfigError(f"depth={depth} must be >= 0")
    try:
        if spec.startswith("constant:"):
            if depth is None:
                raise ConfigError("constant generator needs a depth")
            pattern = [int(spec.split(":", 1)[1])]
        elif spec.startswith("cycle:"):
            if depth is None:
                raise ConfigError("cycle generator needs a depth")
            pattern = [int(tok) for tok in spec.split(":", 1)[1].split(",")]
        else:
            pattern = [int(tok) for tok in spec.split(",")]
            if depth is not None and depth != len(pattern):
                raise ConfigError(
                    f"explicit generator has depth {len(pattern)}, got depth={depth}"
                )
            depth = len(pattern)
        # Every m_k >= 2, so a deeper grid is over the budget; it is refused
        # before its scale, an integer of about 0.3*depth digits, is built.
        if depth > MAX_CELLS.bit_length() - 1:
            raise ConfigError(
                f"depth {depth} gives M_N >= 2^{depth}, over the memory budget {MAX_CELLS}"
            )
        gen = GeneratorSequence.cycle(pattern, depth)
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"bad generator spec {spec!r}: {exc}") from exc
    if gen.size > MAX_CELLS:
        raise ConfigError(f"M_N = {gen.size} exceeds the memory budget {MAX_CELLS}")
    return gen


def parse_phi(spec: str) -> Callable[[int], float]:
    """Weight families: const:<c> | log | logpow:<theta> | loglog | table:<path>.

    Every family is clamped to be nondecreasing and >= 1.
    """
    spec = spec.strip()
    try:
        if spec.startswith("const:"):
            c = float(spec.split(":", 1)[1])
            if not 1 <= c < math.inf:
                raise ConfigError(f"bad phi spec {spec!r}: constant weight must be finite and >= 1")
            return lambda n, c=c: c
        if spec == "log":
            return lambda n: max(1.0, math.log(max(n, 1)))
        if spec.startswith("logpow:"):
            theta = float(spec.split(":", 1)[1])
            if not 0 <= theta < math.inf:
                raise ConfigError(f"bad phi spec {spec!r}: logpow exponent must be finite and >= 0")

            def logpow(n: int) -> float:
                try:
                    return max(1.0, math.log(max(n, 1)) ** theta)
                except OverflowError:
                    raise ConfigError(
                        f"bad phi spec {spec!r}: log(n)**{theta} overflows at n={n}"
                    ) from None

            return logpow
        if spec == "loglog":
            return lambda n: max(1.0, math.log(max(1.0, math.log(max(n, 2)))))
        if spec.startswith("table:"):
            return _tabulated_phi(spec.split(":", 1)[1])
    except ConfigError:
        raise
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"bad phi spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown phi spec {spec!r}")


def _tabulated_phi(path: str) -> Callable[[int], float]:
    """Load "n,value" rows; lookups take the last tabulated n not above n."""
    table: list[tuple[int, float]] = []
    try:
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            a, b = line.split(",")
            table.append((int(a), float(b)))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad phi table {path!r}: {exc}") from exc
    table.sort()
    if not table or table[0][1] < 1:
        raise ConfigError("phi table must be nonempty with values >= 1")
    for n, v in table:
        if not math.isfinite(v):
            raise ConfigError(f"bad phi table {path!r}: value {v} at n={n} is not finite")
    for (_, a), (_, b) in zip(table, table[1:]):
        if b < a:
            raise ConfigError("phi table must be nondecreasing")
    ns = [n for n, _ in table]
    vs = [v for _, v in table]

    def phi(n: int) -> float:
        import bisect

        i = bisect.bisect_right(ns, n) - 1
        return vs[max(i, 0)]

    return phi


@dataclass
class ExperimentConfig:
    generator: str = "constant:2"
    depth: Optional[int] = None
    phi: str = "const:1"
    alphas: str = ""
    nmax: Optional[int] = None
    outdir: str = "out"
    seed: int = 0
    tol: float = identities.DEFAULT_TOL

    # The settings that are not strings, converted alike from a flag and
    # from a config file.
    _TYPES = {"depth": int, "nmax": int, "seed": int, "tol": float}

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        cfg = cls()
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = (tok.strip() for tok in line.split("=", 1))
            if key not in vars(cfg):
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in cls._TYPES:
                try:
                    value = cls._TYPES[key](value)
                except ValueError as exc:
                    raise ConfigError(
                        f"{path}:{lineno}: bad value {value!r} for {key}"
                    ) from exc
            setattr(cfg, key, value)
        return cfg

    def build_generator(self) -> GeneratorSequence:
        return parse_generator(self.generator, self.depth)

    def build_phi(self) -> Callable[[int], float]:
        return parse_phi(self.phi)

    def build_alphas(self, gen: GeneratorSequence,
                     phi: Callable[[int], float]) -> list[int]:
        spec = self.alphas.strip()
        if not spec:
            raise ConfigError("experiment needs an alphas spec")
        if spec.startswith("greedy:"):
            parts = spec.split(":")
            try:
                count = int(parts[1])
                threshold = float(parts[2]) if len(parts) > 2 else 4.0
            except ValueError as exc:
                raise ConfigError(f"bad alphas spec {spec!r}: {exc}") from exc
            if count < 1:
                raise ConfigError(f"bad alphas spec {spec!r}: count must be >= 1")
            try:
                ranks = hardy.select_alphas(phi, count, gen, threshold)
            except ValueError as exc:
                raise ConfigError(f"bad alphas spec {spec!r}: {exc}") from exc
            if len(ranks) < count:
                raise ConfigError(
                    f"greedy selection found only {len(ranks)} of {count} ranks"
                    f" within depth {gen.depth}"
                )
            return ranks
        try:
            ranks = [int(tok) for tok in spec.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad alphas spec {spec!r}") from exc
        if ranks != sorted(set(ranks)) or ranks[-1] >= gen.depth:
            raise ConfigError(f"alphas must be increasing ranks below {gen.depth}")
        if ranks[0] < 1:
            raise ConfigError(f"alpha rank {ranks[0]} must be >= 1 (log M_0 = 0)")
        return ranks


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_lines(path: Path, header: Sequence[str], chunks: Iterable[str]) -> None:
    """Write the header and then each chunk of LF-terminated lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(chunks)


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    """Write the header and rows, quoting a field only if it holds a comma,
    a quote or a line break."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def _params_str(params) -> str:
    return ";".join(f"{k}={v}" for k, v in params.items())


def _check_synth_cells(figure: str, rows: int, gen: GeneratorSequence) -> None:
    """Refuse a run that would synthesize more than MAX_SYNTH_CELLS cells."""
    cells = rows * gen.size
    if cells > MAX_SYNTH_CELLS:
        raise ConfigError(
            f"{figure} = {rows}*{gen.size} = {cells} synthesized cells"
            f" exceeds the budget {MAX_SYNTH_CELLS}"
        )


def _nmax(cfg: ExperimentConfig, default: int, top: int, bound: str) -> int:
    """cfg.nmax, or ``default`` when unset; refused below 1 or above ``top``,
    which the message names as ``bound``."""
    if cfg.nmax is None:
        return default
    if cfg.nmax < 1:
        raise ConfigError(f"nmax={cfg.nmax} must be >= 1")
    if cfg.nmax > top:
        raise ConfigError(f"nmax={cfg.nmax} exceeds {bound}")
    return cfg.nmax


# --- subcommands -------------------------------------------------------------


def cmd_verify(cfg: ExperimentConfig) -> int:
    gen = cfg.build_generator()
    if not 0 <= cfg.tol < math.inf:
        raise ConfigError(f"tol={cfg.tol} must be finite and >= 0")
    if cfg.seed < 0:
        raise ConfigError(f"seed={cfg.seed} must be >= 0")
    # The shift checks stream D_1..D_{2 M_alpha} for every 2 M_alpha <= M_N.
    shift_rows = sum(2 * M for M in gen.scale[:-1] if 2 * M <= gen.size)
    _check_synth_cells("(sum_alpha 2*M_alpha)*M_N", shift_rows, gen)
    rng = np.random.default_rng(cfg.seed)
    reports = identities.run_suite(gen, rng, tol=cfg.tol)
    rows = [
        [r.name, _params_str(r.params), _fmt(r.value), _fmt(r.tolerance),
         str(r.passed).lower()]
        for r in reports
    ]
    _write_csv(
        Path(cfg.outdir) / "verify.csv",
        ["name", "params", "deviation_or_margin", "tolerance", "passed"],
        rows,
    )
    failed = [r for r in reports if not r.passed]
    for r in failed:
        print(f"FAILED {r.name} {_params_str(r.params)} value={r.value:.3g}",
              file=sys.stderr)
    for r in _worst_reports(reports):
        print(f"worst {r.name} {r.kind}={r.value:.3g} at {_params_str(r.params)}",
              file=sys.stderr)
    print(f"verify: {len(reports) - len(failed)}/{len(reports)} checks passed")
    return EXIT_OK if not failed else EXIT_FAILED


def _worst_reports(reports: Sequence[identities.CheckReport]) -> list:
    """Per check family, the largest deviation or the smallest margin."""
    worst: dict[str, identities.CheckReport] = {}
    for r in reports:
        if r.kind == "vacuous":
            continue
        cur = worst.get(r.name)
        if cur is None or (r.value > cur.value if r.kind == "deviation"
                           else r.value < cur.value):
            worst[r.name] = r
    return list(worst.values())


def _kernel_lines(gen: GeneratorSequence, blocks) -> Iterator[str]:
    """One "n,cell,re,im" line per cell, the floats as _fmt formats them.

    A block of kernel rows takes few distinct values, so each one (told
    apart by its bits, which keeps -0.0 apart from 0.0) is formatted once.
    """
    cells = [f",{i}," for i in range(gen.size)]
    for ns, rows in blocks:
        parts = np.stack([rows.real, rows.imag])
        bits, where = np.unique(parts.view(np.int64).ravel(), return_inverse=True)
        text = np.array([_fmt(x) for x in bits.view(np.float64).tolist()], dtype=object)
        where = where.reshape(parts.shape)
        for n, re, im in zip(ns.tolist(), text[where[0]].tolist(), text[where[1]].tolist()):
            yield "".join([f"{n}{c}{a},{b}\n" for c, a, b in zip(cells, re, im)])


def cmd_kernels(cfg: ExperimentConfig) -> int:
    gen = cfg.build_generator()
    nmax = _nmax(cfg, min(gen.size, 16), gen.size, f"M_N={gen.size}")
    if nmax * gen.size > MAX_KERNEL_LINES:
        raise ConfigError(
            f"nmax*M_N = {nmax}*{gen.size} = {nmax * gen.size} lines per CSV"
            f" exceeds the budget {MAX_KERNEL_LINES}"
        )
    header = ["n", "cell_index", "value_re", "value_im"]
    out = Path(cfg.outdir)
    orders = range(1, nmax + 1)
    _write_lines(out / "dirichlet.csv", header,
                 _kernel_lines(gen, transform.dirichlet_rows(orders, gen)))
    _write_lines(out / "fejer.csv", header,
                 _kernel_lines(gen, transform.fejer_kernel_rows(orders, gen)))
    print(f"kernels: wrote n <= {nmax} to {out}")
    return EXIT_OK


def cmd_lebesgue(cfg: ExperimentConfig) -> int:
    gen = cfg.build_generator()
    nmax = _nmax(cfg, min(gen.size, 64), gen.size, f"M_N={gen.size}")
    _check_synth_cells("nmax*M_N", nmax, gen)
    orders = range(1, nmax + 1)
    constants = transform.lebesgue_constants(orders, gen).tolist()
    rows = [[str(n), _fmt(L)] for n, L in zip(orders, constants)]
    _write_csv(Path(cfg.outdir) / "lebesgue.csv", ["n", "L_n"], rows)
    print(f"lebesgue: wrote n <= {nmax}")
    return EXIT_OK


def cmd_variation(cfg: ExperimentConfig) -> int:
    gen = cfg.build_generator()
    nmax = _nmax(cfg, gen.depth, gen.depth, f"depth {gen.depth}")
    # totals[k] = v(0) + ... + v(k), with v(0) = 0.
    totals = np.cumsum(variation_table(gen.scale[nmax], gen))
    rows = []
    for n in range(1, nmax + 1):
        Mn = gen.scale[n]
        if Mn < 2:
            continue
        mean = int(totals[Mn - 1]) / (Mn - 1)
        rows.append([str(n), _fmt(mean), _fmt(mean / n)])
    _write_csv(Path(cfg.outdir) / "variation.csv", ["n", "mean_v", "mean_v_over_n"], rows)
    print(f"variation: wrote n <= {nmax}")
    return EXIT_OK


def cmd_counterexample(cfg: ExperimentConfig) -> int:
    gen = cfg.build_generator()
    phi = cfg.build_phi()
    alphas = cfg.build_alphas(gen, phi)
    nmax = 2 * gen.scale[alphas[-1]]
    _check_synth_cells(f"2*M_{alphas[-1]}*M_N", nmax, gen)
    try:
        ce = hardy.counterexample_martingale(phi, alphas, gen)
        # Finite cells may still overflow the analysis, which sums M_N of
        # them before it divides: the spectrum is then refused as not finite.
        profile = hardy.sigma_norm_profile(ce.function, nmax)
    except ValueError as exc:
        raise ConfigError(f"bad phi {cfg.phi!r}: {exc}") from exc
    cumulative = np.cumsum(profile)
    # totals[k] = v(0) + ... + v(k), with v(0) = 0.
    totals = np.cumsum(variation_table(gen.scale[alphas[-1]], gen))

    rows = []
    t_values = []
    proxies = []
    for k, (a, lam) in enumerate(zip(ce.alphas, ce.lambdas), start=1):
        Ma = gen.scale[a]
        n = 2 * Ma
        t_n = cumulative[n - 1] / (n * phi(n))
        v_mean = int(totals[Ma - 1]) / Ma
        rows.append([
            str(k), str(a), str(Ma), _fmt(lam), str(n), _fmt(t_n),
            _fmt(v_mean), _fmt(profile[n - 1]),
        ])
        t_values.append(t_n)
        proxies.append(math.sqrt(math.log(Ma) / phi(2 * Ma)))
    out = Path(cfg.outdir)
    _write_csv(
        out / "counterexample.csv",
        ["k", "alpha_k", "M_alpha", "lambda_k", "n", "T_n", "v_mean", "norm_sigma"],
        rows,
    )

    summary = [f"blocks={len(alphas)}"]
    if len(t_values) >= 2:
        slope, corr = _fit(proxies, t_values)
        growth = t_values[-1] / t_values[0] if t_values[0] else float("inf")
        regime = "diverging" if growth > 2.0 else "bounded"
        summary += [
            f"slope={_fmt(slope)}", f"correlation={_fmt(corr)}",
            f"growth_ratio={_fmt(growth)}", f"regime={regime}",
        ]
    else:
        summary.append("fit=skipped (single block)")
    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    print("counterexample: " + " ".join(summary))
    return EXIT_OK


def _fit(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope of y on x and their correlation coefficient."""
    x = np.asarray(x)
    y = np.asarray(y)
    slope = float(np.polyfit(x, y, 1)[0])
    corr = float(np.corrcoef(x, y)[0, 1])
    return slope, corr


# --- entry point -------------------------------------------------------------


# Each subcommand's handler and the settings it reads beyond the shared ones;
# its parser has flags for exactly these, so a flag it would ignore is refused.
COMMANDS = {
    "verify": (cmd_verify, ("seed", "tol")),
    "kernels": (cmd_kernels, ("nmax",)),
    "lebesgue": (cmd_lebesgue, ("nmax",)),
    "variation": (cmd_variation, ("nmax",)),
    "counterexample": (cmd_counterexample, ("phi", "alphas")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vilenkin",
        description="Vilenkin-system kernels, identities, and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in COMMANDS.items():
        p = sub.add_parser(name)
        for key in ("config", "generator", "depth", "out", *keys):
            p.add_argument(f"--{key}", type=ExperimentConfig._TYPES.get(key, str))
    return parser


# Built once: parse_args leaves the parser unchanged.
_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = vars(_PARSER.parse_args(argv))
    handler = COMMANDS[args.pop("command")][0]
    config = args.pop("config")
    try:
        cfg = ExperimentConfig.load(config) if config else ExperimentConfig()
        # Flags override the file; "out" is the config key "outdir".
        for key, value in args.items():
            if value is not None:
                setattr(cfg, "outdir" if key == "out" else key, value)
        return handler(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
