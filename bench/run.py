"""Benchmark of the vilenkin library: one seeded workload per invocation.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: verify_mixed, divergence, finite_spectrum, large_grid (see
bench/workloads.py and bench/METRICS.md).  Each is a closed loop with one
client: job i+1 starts when job i and its output checks have finished.

With ``--trace 0`` the run reports the end-to-end metrics, with job and
set-up times scaled to a fixed reference speed (see REF_NOMINAL_S); with
``--trace 1``
it runs every job twice on the same inputs, once with spans around the
public functions of each layer and once without (alternating which goes
first), reports the per-layer metrics and the tracing overhead, requires the
two outputs to be byte-identical, and writes the spans to
``.bench_out/trace-<workload>-<seed>.json``.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  ``attempted``
and ``failed`` count output checks.  The library is imported from ``src/`` of
the checkout this file lives in; the run exits with code 2 if it is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 5
IMPORT_REPS = 5
# job_s_tail needs ten jobs beyond it, and 100 jobs make it at least p90.  A
# full-size run measures for --seconds and, on a host too slow to finish 100
# jobs in that time, on until it has them or has measured MAX_OVERRUN times
# --seconds; tiny test runs stop at 11 jobs.
MIN_JOBS, TINY_MIN_JOBS, MAX_OVERRUN = 100, 11, 1.2
# Job and set-up times are reported at a fixed reference speed: each is scaled
# by REF_NOMINAL_S over the time of a fixed matmul loop, the median of the
# loops timed right after it and after its REF_WINDOW neighbours on either
# side.  On a 2-vCPU x86-64 VM (Intel Xeon, 2 MiB L2 per core) the speed the
# host gave the process swung by up to 25% within tens of seconds; the loop
# tracks those swings, and 5-second medians of scaled job times spread
# (quartile distance over median) 4% where the raw ones spread 8-21%.  The
# library never runs during the loop, so it cannot move the yardstick, except
# by leaving threads busy after a job returns.  Raw times are printed as well.
REF_N, REF_REPS, REF_WINDOW = 256, 12, 4
REF_NOMINAL_S = 0.008  # median time of the loop on that VM
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOAD_NAMES = ("verify_mixed", "divergence", "finite_spectrum", "large_grid")

END_TO_END = [
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]

TRANSFORM_FNS = ("forward_transform", "inverse_transform", "synthesize", "dirichlet",
                 "fejer_kernel", "partial_sum", "fejer_mean", "lebesgue_constant")
HARDY_FNS = ("sigma_norm_profile.plain", "sigma_norm_profile.hardy", "partial_sum_norm_profile",
             "counterexample_martingale", "function_hardy_quasinorm",
             "strong_sums.fejer_weighted", "strong_sums.simon", "strong_sums.gat")
CHECK_FAMILIES = ("dirichlet_at_scale", "dirichlet_scaled", "dirichlet_shift",
                  "kernel_block_decomposition", "kernel_lower_bound", "kernel_vanishing",
                  "kernel_digit_expansion", "block_pattern_lower_bound", "digit_tail_bound")
CLI_SUBCOMMANDS = ("verify", "kernels", "lebesgue", "variation", "counterexample")


def _calls_and_self(layer: str, fns) -> list[tuple[str, str]]:
    return [m for fn in fns for m in ((f"{layer}.{fn}.calls", "count/job"), (f"{layer}.{fn}.self_s", "s/job"))]


PER_LAYER = (
    _calls_and_self("transform", TRANSFORM_FNS)
    + [("transform.cells_per_s", "1/s"), ("transform.flops_computed", "flop/job"),
       ("transform.bytes_computed", "B/job")]
    + _calls_and_self("hardy", HARDY_FNS)
    + [("hardy.function_hardy_quasinorm.busy_s", "s/job"), ("hardy.profile_rows", "count/job"),
       ("hardy.profile_cells_per_s", "1/s")]
    + _calls_and_self("funcspace", ("lp_quasinorm", "weak_lp"))
    + [("funcspace.gridfunctions_built", "count/job")]
    + [("identities.run_suite.busy_s", "s/job"), ("identities.checks", "count/job"),
       ("identities.checks_failed", "count/job")]
    + [(f"identities.check_{fam}.self_s", "s/job") for fam in CHECK_FAMILIES]
    + _calls_and_self("group", ("to_digits", "variation"))
    + [("group.digit_values.hit_ratio", "ratio")]
    + [(f"cli.{sub}.busy_s", "s/job") for sub in CLI_SUBCOMMANDS]
    + [("cli.self_s", "s/job"), ("cli.bytes_written", "B/job")]
    + [("trace.overhead_s", "s")]
)


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten jobs beyond it, and that percentile.

    With 11 jobs or fewer (only in tiny test runs) this is the fastest job.
    """
    ordered = sorted(times)
    idx = max(len(ordered) - 11, 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def import_seconds() -> float:
    """Time to import numpy and vilenkin from src/ in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import numpy, vilenkin; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                                capture_output=True, text=True, timeout=60).stdout)


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """Times at the reference speed: refs[i] is the reference loop timed after times[i]."""
    return [t * REF_NOMINAL_S / statistics.median(refs[max(i - REF_WINDOW, 0): i + REF_WINDOW + 1])
            for i, t in enumerate(times)]


def reference_s(a) -> float:
    """Time of the fixed reference loop: REF_REPS products of a REF_N x REF_N matrix."""
    t0 = time.perf_counter()
    for _ in range(REF_REPS):
        a @ a
    return time.perf_counter() - t0


def clear_caches(V) -> None:
    """Drop every memoised function's cache in the library, as in a fresh process."""
    for mod in (V.group, V.funcspace, V.transform, V.identities, V.hardy, V.cli):
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def digit_cache_info(V) -> tuple[int, int]:
    """(hits, misses) of the memoised group.digit_values; (0, 0) if it is gone."""
    info = getattr(getattr(V.group, "digit_values", None), "cache_info", None)
    return (info().hits, info().misses) if info else (0, 0)


def timed_job(V, wl, inp, tracer=None):
    """Run one job; with a tracer, record its spans and cache and output counts."""
    if wl.cold_caches:
        clear_caches(V)
    if tracer is None:
        t0 = time.perf_counter()
        out = wl.run(inp)
        return out, time.perf_counter() - t0
    before = digit_cache_info(V)
    tracer.install(V)
    try:
        t0 = time.perf_counter()
        out = wl.run(inp)
        dt = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    after = digit_cache_info(V)
    tracer.add_counts({"group.digit_values.hits": after[0] - before[0],
                       "group.digit_values.misses": after[1] - before[1],
                       "cli.bytes_written": cli_bytes(out)})
    return out, dt


def cli_bytes(outputs) -> int:
    if isinstance(outputs, dict):
        if "files" in outputs and "exit" in outputs:
            return sum(len(b) for b in outputs["files"].values())
        return sum(cli_bytes(v) for v in outputs.values())
    return 0


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed: dict[str, int] = {}

    def add(self, results) -> None:
        for name, ok in results:
            self.attempted += 1
            if not ok:
                self.failed[name] = self.failed.get(name, 0) + 1

    @property
    def failed_count(self) -> int:
        return sum(self.failed.values())


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 import_reps: int = 0, echo=print) -> dict:
    """Set up and run one workload; return the result object of the last line.

    ``import_reps`` fresh interpreters time the import for ``setup_s``; with
    0 (as in the tests) the import is left out of it.
    """
    import numpy as np
    import vilenkin as V

    import machine
    import workloads
    from tracing import Tracer

    workdir = OUT_DIR / f"work-{name}-{os.getpid()}"
    checks = Checks()
    ref_matrix = np.random.default_rng(0).normal(size=(REF_N, REF_N))
    try:
        wl = workloads.make(name, tiny)
        import_times, import_refs, setup_times, setup_refs = [], [], [], []
        for _ in range(import_reps):
            import_times.append(import_seconds())
            import_refs.append(reference_s(ref_matrix))
        for rep in range(SETUP_REPS):
            clear_caches(V)
            t0 = time.perf_counter()
            wl.setup(seed, workdir)
            inp = wl.make_inputs(10**6 + rep)
            out = wl.run(inp)
            setup_times.append(time.perf_counter() - t0)
            setup_refs.append(reference_s(ref_matrix))
        checks.add(wl.check(inp, out))
        del inp, out

        tracer = Tracer() if trace else None
        traced_times, times, refs = [], [], []
        i = 0
        begin = time.perf_counter()
        min_jobs = 1 if trace else TINY_MIN_JOBS if tiny else MIN_JOBS
        while (time.perf_counter() - begin < seconds
               or len(times) < min_jobs and time.perf_counter() - begin < MAX_OVERRUN * seconds):
            inp = wl.make_inputs(i)
            if tracer is None:
                out, dt = timed_job(V, wl, inp)
                times.append(dt)
                refs.append(reference_s(ref_matrix))
            else:
                tracer.job = i
                # Alternate which twin goes first, so neither always finds warm memory.
                for traced in ((True, False) if i % 2 == 0 else (False, True)):
                    if traced:
                        out_t, dt = timed_job(V, wl, inp, tracer)
                        traced_times.append(dt)
                    else:
                        out, dt = timed_job(V, wl, inp)
                        times.append(dt)
                same = workloads.fingerprint(out_t) == workloads.fingerprint(out)
                checks.add([("traced_vs_untraced_identical", same)])
                del out_t
            checks.add(wl.check(inp, out))
            checks.add(wl.determinism(inp, out))
            del inp, out
            i += 1
        measured_s = time.perf_counter() - begin
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = machine.describe(ROOT)
    props = wl.properties()
    echo(f"workload {name} seed={seed} seconds={seconds} trace={int(trace)} jobs={len(times)}"
         f" measured_s={measured_s:.3f}")
    echo("environment " + json.dumps(env, sort_keys=True))
    echo("inputs " + json.dumps(props, sort_keys=True))
    error_rate = checks.failed_count / checks.attempted
    echo(f"error_rate {error_rate:.6g} ratio (failed {checks.failed_count} of {checks.attempted} checks)")
    for check, count in sorted(checks.failed.items()):
        echo(f"FAILED check {check} x{count}")

    if tracer is None:
        tail_s, pct = tail(scaled(times, refs))
        setup_s = statistics.median(scaled(setup_times, setup_refs))
        setup_raw = statistics.median(setup_times)
        if import_times:
            setup_s += statistics.median(scaled(import_times, import_refs))
            setup_raw += statistics.median(import_times)
        values = {
            "job_s_p50": statistics.median(scaled(times, refs)),
            "job_s_tail": tail_s,
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        echo(f"job_s_tail is p{pct:.1f} of {len(times)} jobs;"
             f" setup_s = median of {len(import_times)} imports + median of {SETUP_REPS} set-ups")
        echo(f"reference loop median {statistics.median(refs):.6f} s in the jobs and"
             f" {statistics.median(import_refs + setup_refs):.6f} s in set-up, against {REF_NOMINAL_S} s; unscaled job_s_p50 {statistics.median(times):.6g} s,"
             f" job_s_tail {tail(times)[0]:.6g} s, setup_s {setup_raw:.6g} s")
    else:
        values = layer_metrics(tracer, traced_times, times)
        units = dict(PER_LAYER)
        path = OUT_DIR / f"trace-{name}-{seed}.json"
        tracer.write(path, {"workload": name, "seed": seed, "environment": env, "inputs": props,
                            "traced_job_s": traced_times, "untraced_job_s": times})
        echo(f"trace: {len(tracer.spans)} spans written to {path.relative_to(ROOT)};"
             f" {len(traced_times)} traced and {len(times)} untraced jobs")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    for k, m in metrics.items():
        echo(f"{k} {m['value']:.6g} {m['unit']}")
    return {"correct": checks.failed_count == 0, "attempted": checks.attempted,
            "failed": checks.failed_count, "metrics": metrics}


def layer_metrics(tr, traced_times, times) -> dict:
    """Per-layer metrics of the traced jobs; counts and times are per traced job."""
    c = tr.counters
    jobs = len(traced_times)
    v: dict[str, float] = {}
    for name, _ in PER_LAYER:
        if name.endswith(".calls"):
            v[name] = tr.calls(name[: -len(".calls")]) / jobs
        elif name.endswith(".self_s"):
            v[name] = tr.self_s(name[: -len(".self_s")]) / jobs
    t_self = tr.self_s("transform.forward_transform") + tr.self_s("transform.inverse_transform")
    v["transform.cells_per_s"] = c.get("transform.cells", 0) / t_self if t_self else 0.0
    v["transform.flops_computed"] = c.get("transform.flops_computed", 0) / jobs
    v["transform.bytes_computed"] = c.get("transform.bytes_computed", 0) / jobs
    p_self = sum(tr.self_s(f"hardy.{fn}") for fn in HARDY_FNS[:3])
    v["hardy.function_hardy_quasinorm.busy_s"] = tr.total_s("hardy.function_hardy_quasinorm") / jobs
    v["hardy.profile_rows"] = c.get("hardy.rows", 0) / jobs
    v["hardy.profile_cells_per_s"] = c.get("hardy.cells", 0) / p_self if p_self else 0.0
    v["funcspace.gridfunctions_built"] = tr.gridfunctions_built / jobs
    v["identities.run_suite.busy_s"] = tr.total_s("identities.run_suite") / jobs
    v["identities.checks"] = c.get("identities.checks", 0) / jobs
    v["identities.checks_failed"] = c.get("identities.checks_failed", 0) / jobs
    hits, misses = c.get("group.digit_values.hits", 0), c.get("group.digit_values.misses", 0)
    v["group.digit_values.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for sub in CLI_SUBCOMMANDS:
        v[f"cli.{sub}.busy_s"] = tr.total_s(f"cli.main.{sub}") / jobs
    v["cli.self_s"] = sum(st[2] for name, st in tr.stats.items() if name.startswith("cli.")) / jobs
    v["cli.bytes_written"] = c.get("cli.bytes_written", 0) / jobs
    v["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(times)
    return v


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # One BLAS thread: the axis pass multiplies by tiny m_k x m_k matrices, and
    # OpenBLAS worker threads spin-waiting on them made job times swing by up
    # to 6x with whatever else the two cores were running.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import numpy  # noqa: F401
        import vilenkin
    except ImportError as exc:
        print(f"bench: cannot import vilenkin from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(vilenkin.__file__).resolve().is_relative_to(src):
        print(f"bench: vilenkin was imported from {vilenkin.__file__}, not {src}", file=sys.stderr)
        return 2

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          import_reps=0 if args.trace else IMPORT_REPS)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
