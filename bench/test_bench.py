"""Tests of the benchmark itself: metric names, oracles, and failure counting.

Run with ``python3 -m pytest bench -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

import vilenkin as V  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_the_run_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.PER_LAYER
    assert any(m["name"] == "setup_s" and m["bound"] == max(e["bound"] for e in SPEC["end_to_end"])
               for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    lines = []
    res = run.run_workload(name, seed=3, seconds=0.05, trace=trace, tiny=True, echo=lines.append)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, lines
    want = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, m["unit"]) for k, m in res["metrics"].items()] == want
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())
    assert any(line.startswith("error_rate 0 ratio") for line in lines)


def _job(name, seed=5):
    wl = workloads.make(name, tiny=True)
    wl.setup(seed, ROOT / ".bench_out" / f"test-{name}")
    inp = wl.make_inputs(0)
    out = wl.run(inp)
    assert all(ok for _, ok in wl.check(inp, out))
    return wl, inp, out


def _fails(wl, inp, out):
    return [name for name, ok in wl.check(inp, out) if not ok]


def test_flipped_transform_coefficient_is_a_failure():
    wl, inp, out = _job("large_grid")
    coeffs = out["forward"].copy()
    coeffs[7] = -coeffs[7]
    out["forward"] = coeffs
    assert _fails(wl, inp, out) == ["forward_vs_fftn"]


def test_wrong_fejer_mean_and_partial_sum_are_failures():
    wl, inp, out = _job("large_grid")
    out["fejer_mean"] = out["fejer_mean"] * (1 + 1e-6)
    out["partial_sum"] = np.roll(out["partial_sum"], 1)
    assert set(_fails(wl, inp, out)) == {"fejer_mean_energy", "fejer_mean_vs_f",
                                         "partial_sum_is_cylinder_mean"}


def test_wrong_strong_sums_are_failures():
    wl, inp, out = _job("finite_spectrum")
    out["simon"] *= 1 + 1e-6
    out["gat"] += 1e-6
    assert _fails(wl, inp, out) == ["simon_closed_form", "gat_closed_form"]


def test_wrong_norm_sigma_and_bounded_regime_are_failures():
    wl, inp, out = _job("divergence")
    files = out["cli"]["files"]
    rows = files["counterexample.csv"].decode().splitlines()
    cells = rows[1].split(",")
    cells[-1] = repr(float(cells[-1]) * 1.001)
    rows[1] = ",".join(cells)
    files["counterexample.csv"] = ("\n".join(rows) + "\n").encode()
    files["summary.txt"] = files["summary.txt"].replace(b"regime=diverging", b"regime=bounded")
    fails = _fails(wl, inp, out)
    assert "regime_diverging" in fails and any(f.startswith("norm_sigma@") for f in fails)


def test_wrong_fejer_weighted_sum_and_function_are_failures():
    wl, inp, out = _job("divergence")
    out["fejer_weighted"] *= 1 + 1e-5
    assert _fails(wl, inp, out) == ["fejer_weighted_oracle"]
    values = out["function"].copy()
    big = int(np.argmax(np.abs(values)))
    values[big] = -values[big]
    out["function"] = values
    assert "function_closed_form" in _fails(wl, inp, out)


def test_failed_identity_row_and_thread_mismatch_are_failures():
    wl, inp, out = _job("verify_mixed")
    assert all(ok for _, ok in wl.determinism(inp, out))
    files = out["verify"]["files"]
    files["verify.csv"] = files["verify.csv"].replace(b",true\n", b",false\n", 1)
    assert _fails(wl, inp, out) == ["verify.all_passed"]
    assert [ok for _, ok in wl.determinism(inp, out)] == [False]


def test_oracles_agree_with_the_library():
    rng = np.random.default_rng(0)
    for gen in (V.GeneratorSequence.walsh(7), V.GeneratorSequence.cycle([2, 3, 4], 5)):
        f = V.GridFunction(gen, rng.normal(size=gen.size) + 1j * rng.normal(size=gen.size))
        assert workloads.maximal_quasinorm(f.values, gen.m, 0.5) == pytest.approx(
            V.function_hardy_quasinorm(f, 0.5), rel=1e-12)
        assert workloads.weak_lp_sorted(f.values, 0.5) == pytest.approx(V.weak_lp(f, 0.5), rel=1e-12)
    psi = workloads.walsh_characters(5, 8)
    for j in range(8):
        assert np.allclose(psi[j], V.vilenkin_fn(j, V.GeneratorSequence.walsh(5)).values)
    for m in ((2, 3, 4, 5, 2, 3), (2, 2, 3, 2), (5, 5, 5, 5, 5)):
        reports = V.identities.run_suite(V.GeneratorSequence(m), np.random.default_rng(1))
        assert len(reports) == workloads.expected_verify_rows(m)


def test_tracer_restores_every_binding():
    before = {(ns.__name__, k): v for ns in (V, V.transform, V.identities, V.hardy, V.cli)
              for k, v in vars(ns).items()}
    tracer = Tracer()
    tracer.install(V)
    assert V.identities.dirichlet is not before[("vilenkin.identities", "dirichlet")]
    tracer.uninstall()
    after = {(ns.__name__, k): v for ns in (V, V.transform, V.identities, V.hardy, V.cli)
             for k, v in vars(ns).items()}
    assert after.keys() == before.keys() and all(after[k] is before[k] for k in before)


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.install(V)
    try:
        V.transform.fejer_mean(V.GridFunction.constant(V.GeneratorSequence.walsh(10), 1.0), 5)
    finally:
        tracer.uninstall()
    total = tracer.total_s("transform.fejer_mean")
    children = tracer.total_s("transform.forward_transform") + tracer.total_s("transform.inverse_transform")
    assert tracer.self_s("transform.fejer_mean") == pytest.approx(total - children, abs=1e-9)
    spans = {s[1]: s for s in tracer.spans}
    assert spans["transform.forward_transform"][4] == spans["transform.fejer_mean"][0]


def test_every_traced_function_metric_is_wrapped():
    tracer = Tracer()
    tracer.install(V)
    try:
        for name, _ in run.PER_LAYER:
            if name.endswith(".calls"):
                layer, fn = name.split(".")[:2]
                assert hasattr(getattr(getattr(V, layer), fn), "__wrapped__"), name
    finally:
        tracer.uninstall()


def test_traced_finite_spectrum_counts_synthesize_and_profile_rows():
    lines = []
    res = run.run_workload("finite_spectrum", seed=3, seconds=0.05, trace=True, tiny=True,
                           echo=lines.append)
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["transform.synthesize.calls"] >= 1
    # simon's partial-sum profile synthesizes M_N rows on top of the transforms.
    transform_rows = m["transform.forward_transform.calls"] + m["transform.inverse_transform.calls"]
    assert m["hardy.profile_rows"] == 64
    gen = V.GeneratorSequence.walsh(6)
    assert m["transform.flops_computed"] == 8 * gen.size * 2 * 6 * (transform_rows + 64)


def test_import_is_timed_in_a_fresh_interpreter():
    assert 0 < run.import_seconds() < 30


def test_run_without_the_library_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "divergence", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_every_divergence_input_diverges_at_tiny_depth():
    wl = workloads.make("divergence", tiny=True)
    wl.setup(0, ROOT / ".bench_out" / "test-divergence-scan")
    seen = set()
    for i in range(200):
        inp = wl.make_inputs(i)
        key = (inp["phi"], tuple(inp["alphas"]))
        if key in seen:
            continue
        seen.add(key)
        res = workloads.run_cli(["counterexample", "--generator", "constant:2", "--depth", str(wl.depth),
                                 "--phi", inp["phi"], "--alphas", ",".join(map(str, inp["alphas"]))],
                                wl.workdir)
        assert b"regime=diverging" in res["files"]["summary.txt"], key
    assert len(seen) > 20
