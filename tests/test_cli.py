import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vilenkin
from vilenkin.cli import (
    MAX_KERNEL_LINES,
    MAX_SYNTH_CELLS,
    ConfigError,
    ExperimentConfig,
    main,
    parse_generator,
    parse_phi,
)


def read(path):
    return path.read_bytes()


# --- config parsing ----------------------------------------------------------


def test_parse_generator_forms():
    assert parse_generator("2,3,4", None).m == (2, 3, 4)
    assert parse_generator("constant:3", 4).m == (3, 3, 3, 3)
    assert parse_generator("cycle:2,3", 5).m == (2, 3, 2, 3, 2)


def test_parse_generator_rejects_bad_specs():
    with pytest.raises(ConfigError):
        parse_generator("1,2", None)
    with pytest.raises(ConfigError):
        parse_generator("constant:2", None)  # missing depth
    with pytest.raises(ConfigError):
        parse_generator("2,2", 3)  # depth disagrees
    with pytest.raises(ConfigError):
        parse_generator("constant:2", 30)  # memory budget


def test_parse_phi_families():
    assert parse_phi("const:1")(100) == 1.0
    assert parse_phi("log")(100) == pytest.approx(math.log(100))
    assert parse_phi("logpow:0.5")(100) == pytest.approx(math.sqrt(math.log(100)))
    assert parse_phi("loglog")(10**6) == pytest.approx(math.log(math.log(10**6)))
    for spec in ("const:1", "log", "logpow:0.5", "loglog"):
        phi = parse_phi(spec)
        values = [phi(n) for n in range(1, 200)]
        assert all(v >= 1.0 for v in values)
        assert values == sorted(values)


def test_parse_phi_rejects_bad_specs():
    for spec in ("", "const:0.5", "logpow:-1", "weird"):
        with pytest.raises(ConfigError):
            parse_phi(spec)


def test_parse_phi_table(tmp_path):
    table = tmp_path / "phi.csv"
    table.write_text("1,1\n10,2\n100,3\n")
    phi = parse_phi(f"table:{table}")
    assert phi(5) == 1.0 and phi(10) == 2.0 and phi(1000) == 3.0
    table.write_text("1,3\n10,2\n")
    with pytest.raises(ConfigError):
        parse_phi(f"table:{table}")


def test_config_file_roundtrip(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# demo config\ngenerator=constant:2\ndepth=6\nphi=const:1\n"
        "alphas=2,4\nnmax=8\noutdir=out\nseed=3\ntol=1e-8\n"
    )
    cfg = ExperimentConfig.load(str(cfg_file))
    assert cfg.depth == 6 and cfg.seed == 3 and cfg.tol == 1e-8
    assert cfg.build_generator().size == 64


def test_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("generatr=2,2\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.load(str(cfg_file))


def test_config_bad_integer_value_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("generator=constant:2\ndepth=abc\n")
    assert main(["verify", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'abc'" in err and "depth" in err


def test_greedy_alphas_bad_count_exits_2(tmp_path, capsys):
    assert main(["counterexample", "--generator", "constant:2", "--depth", "8",
                 "--alphas", "greedy:x", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "greedy:x" in err


BAD_INPUTS = [
    (["kernels", "--generator", "constant:2", "--depth", "3", "--nmax", "0"], "nmax=0"),
    (["kernels", "--generator", "constant:2", "--depth", "3", "--nmax", "-2"], "nmax=-2"),
    (["lebesgue", "--generator", "constant:2", "--depth", "3", "--nmax", "0"], "nmax=0"),
    (["lebesgue", "--generator", "constant:2", "--depth", "3", "--nmax", "-2"], "nmax=-2"),
    (["variation", "--generator", "constant:2", "--depth", "3", "--nmax", "0"], "nmax=0"),
    (["variation", "--generator", "constant:2", "--depth", "3", "--nmax", "-2"], "nmax=-2"),
    (["verify", "--generator", "constant:2", "--depth", "3", "--tol", "nan"], "tol=nan"),
    (["verify", "--generator", "constant:2", "--depth", "3", "--tol", "-1"], "tol=-1"),
    (["verify", "--generator", "constant:2", "--depth", "3", "--tol", "inf"], "tol=inf"),
    (["verify", "--generator", "constant:2", "--depth", "3", "--seed", "-1"], "seed=-1"),
    (["verify", "--generator", "constant:2", "--depth", "-1"], "depth=-1"),
    (["verify", "--generator", "cycle:2,3", "--depth", "-1"], "depth=-1"),
    (["counterexample", "--generator", "constant:2", "--depth", "8",
      "--phi", "logpow:nan", "--alphas", "2,4"], "'logpow:nan'"),
    (["counterexample", "--generator", "constant:2", "--depth", "8",
      "--phi", "logpow:inf", "--alphas", "2,4"], "'logpow:inf'"),
    (["counterexample", "--generator", "constant:2", "--depth", "8",
      "--phi", "const:nan", "--alphas", "2,4"], "'const:nan'"),
    (["counterexample", "--generator", "constant:2", "--depth", "8",
      "--phi", "const:inf", "--alphas", "2,4"], "'const:inf'"),
    # log(8)**1000 overflows a float; the weight is first evaluated at
    # n = 2 M_2 = 8 by the explicit ranks, and at n = 4, then 8, by greedy.
    (["counterexample", "--generator", "constant:2", "--depth", "8",
      "--phi", "logpow:1000", "--alphas", "2,4"], "'logpow:1000': log(n)**1000.0 overflows at n=8"),
    (["counterexample", "--generator", "constant:2", "--depth", "8",
      "--phi", "logpow:1000", "--alphas", "greedy:2"], "'logpow:1000': log(n)**1000.0 overflows at n=8"),
    (["counterexample", "--generator", "constant:2", "--depth", "8",
      "--alphas", "greedy:0"], "'greedy:0'"),
    (["counterexample", "--generator", "constant:2", "--depth", "8",
      "--alphas", "greedy:-1"], "'greedy:-1'"),
    (["counterexample", "--generator", "constant:2", "--depth", "8",
      "--alphas", "greedy:2:nan"], "'greedy:2:nan': threshold=nan"),
    (["counterexample", "--generator", "constant:2", "--depth", "8",
      "--alphas", "greedy:2:inf"], "'greedy:2:inf': threshold=inf"),
    (["counterexample", "--generator", "constant:2", "--depth", "8",
      "--alphas", "greedy:2:-1"], "'greedy:2:-1': threshold=-1.0"),
    (["counterexample", "--generator", "constant:2", "--depth", "8",
      "--alphas", "greedy:2:0"], "'greedy:2:0': threshold=0.0"),
    # More digits than log2 of the memory budget, refused before M_N is
    # built: depth 30000 raised a ValueError while formatting the 9031-digit
    # M_N, and depth 1000000 ran on past 30 s.
    (["variation", "--generator", "constant:2", "--depth", "30000"],
     "depth 30000 gives M_N >= 2^30000, over the memory budget 4194304"),
    (["variation", "--generator", ",".join(["2"] * 23)],
     "depth 23 gives M_N >= 2^23, over the memory budget 4194304"),
    (["variation", "--generator", "1000001,5"], "M_N = 5000005 exceeds the memory budget 4194304"),
    # The cell values overflowed: a traceback from building the grid.
    (["counterexample", "--generator", "constant:2", "--depth", "8",
      "--phi", "const:1e308", "--alphas", "2,4"], "'const:1e308': rank 2: lambda_1="),
    # Finite cells, but the analysis summed M_N of them into inf - inf: a
    # traceback from the spectrum inside the Fejer profile.
    (["counterexample", "--generator", "constant:2", "--depth", "8",
      "--phi", "const:1e306", "--alphas", "2,4"],
     "'const:1e306': coefficients must be finite, got coeffs[4]=(nan+nanj)"),
]


@pytest.mark.parametrize("argv, named", BAD_INPUTS, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_bad_input_exits_2_naming_the_value(tmp_path, capsys, argv, named):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err, err
    assert not out.exists() or not any(out.iterdir())


# The flags each subcommand reads beyond --config, --generator, --depth and
# --out, written out here rather than read from cli.COMMANDS, so that a wrong
# table fails the test.
FLAGS_READ = {
    "verify": ("--seed", "--tol"),
    "kernels": ("--nmax",),
    "lebesgue": ("--nmax",),
    "variation": ("--nmax",),
    "counterexample": ("--phi", "--alphas"),
}
FLAG_VALUES = {"--phi": "const:1", "--alphas": "2,4", "--nmax": "4", "--seed": "1", "--tol": "1e-9"}
IGNORED_FLAGS = [
    (command, flag)
    for command, reads in FLAGS_READ.items()
    for flag in FLAG_VALUES if flag not in reads
]


@pytest.mark.parametrize("command, flag", IGNORED_FLAGS, ids=[" ".join(p) for p in IGNORED_FLAGS])
def test_flag_the_subcommand_does_not_read_exits_2(tmp_path, capsys, command, flag):
    # These 18 pairs were accepted and then dropped without a word.
    out = tmp_path / "out"
    argv = [command, "--generator", "constant:2", "--depth", "8",
            flag, FLAG_VALUES[flag], "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_kernels_over_the_line_budget_exits_2_before_any_synthesis(tmp_path, capsys, monkeypatch):
    def refuse(*_):
        raise AssertionError("a kernel was synthesized")

    monkeypatch.setattr(vilenkin.transform, "dirichlet_rows", refuse)
    monkeypatch.setattr(vilenkin.transform, "fejer_kernel_rows", refuse)
    # 257 * 4096 lines is one kernel row over the budget of 2^20.
    out = tmp_path / "out"
    assert main(["kernels", "--generator", "constant:2", "--depth", "12",
                 "--nmax", "257", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "257*4096 = 1052672" in err and str(MAX_KERNEL_LINES) in err, err
    assert not out.exists()


def refuse_synthesis(monkeypatch):
    def refuse(*_, **__):
        raise AssertionError("the run started")

    monkeypatch.setattr(vilenkin.transform, "dirichlet_rows", refuse)
    monkeypatch.setattr(vilenkin.hardy, "sigma_norm_profile", refuse)
    monkeypatch.setattr(vilenkin.hardy, "counterexample_martingale", refuse)
    monkeypatch.setattr(vilenkin.identities, "run_suite", refuse)


@pytest.mark.parametrize("argv, figure", [
    # the default nmax = 64 at the largest depth MAX_CELLS admits
    (["lebesgue", "--generator", "constant:2", "--depth", "22"],
     "nmax*M_N = 64*4194304 = 268435456"),
    (["lebesgue", "--generator", "constant:2", "--depth", "20", "--nmax", "65"],
     "nmax*M_N = 65*1048576 = 68157440"),
    (["counterexample", "--generator", "constant:2", "--depth", "22", "--phi", "const:1",
      "--alphas", "4,12,21"], "2*M_21*M_N = 4194304*4194304 = 17592186044416"),
    (["counterexample", "--generator", "constant:2", "--depth", "14", "--phi", "const:1",
      "--alphas", "4,8,12"], "2*M_12*M_N = 8192*16384 = 134217728"),
    # the shift checks stream 2*M_alpha rows for alpha = 0..21
    (["verify", "--generator", "constant:2", "--depth", "22"],
     "(sum_alpha 2*M_alpha)*M_N = 8388606*4194304 = 35184363700224"),
])
def test_over_the_cell_budget_exits_2_before_any_synthesis(
    tmp_path, capsys, monkeypatch, argv, figure
):
    refuse_synthesis(monkeypatch)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert figure in err and f"budget {MAX_SYNTH_CELLS}" in err, err
    assert not out.exists()


def test_cell_budget_is_inclusive(tmp_path, monkeypatch):
    monkeypatch.setattr(vilenkin.cli, "MAX_SYNTH_CELLS", 8 * 16)
    base = ["--generator", "constant:2", "--depth", "4", "--out", str(tmp_path)]
    assert main(["lebesgue", "--nmax", "8", *base]) == 0
    assert main(["lebesgue", "--nmax", "9", *base]) == 2
    # 2*M_2 = 8 profile rows of 16 cells
    ce = ["counterexample", "--phi", "const:1", *base]
    assert main([*ce, "--alphas", "1,2"]) == 0
    assert main([*ce, "--alphas", "1,3"]) == 2


def test_phi_table_with_non_finite_value_is_config_error(tmp_path):
    table = tmp_path / "phi.csv"
    table.write_text("1,1\n10,nan\n")
    with pytest.raises(ConfigError, match="nan"):
        parse_phi(f"table:{table}")


# --- subcommands -------------------------------------------------------------


def test_verify_walsh_passes(tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "--generator", "constant:2", "--depth", "6",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "verify.csv").read_text().splitlines()
    assert lines[0] == "name,params,deviation_or_margin,tolerance,passed"
    assert all(line.endswith("true") for line in lines[1:])


def test_verify_csv_reads_back_with_csv_reader(tmp_path):
    import numpy as np

    from vilenkin.identities import run_suite

    assert main(["verify", "--generator", "cycle:2,3,4", "--depth", "6",
                 "--seed", "3", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "verify.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["name", "params", "deviation_or_margin", "tolerance", "passed"]
    assert all(len(row) == 5 for row in rows)
    reports = run_suite(parse_generator("cycle:2,3,4", 6), np.random.default_rng(3))
    params = [";".join(f"{k}={v}" for k, v in r.params.items()) for r in reports]
    assert [row[1] for row in rows[1:]] == params
    assert any("," in p for p in params)  # block patterns: blocks=((4, 4),);n=48
    # Only a field holding a comma is quoted, and every line ends in a bare LF.
    lines = (tmp_path / "verify.csv").read_bytes().decode().split("\n")
    assert lines[-1] == "" and len(lines) == len(rows) + 1
    for line, row in zip(lines[1:], rows[1:]):
        field = f'"{row[1]}"' if "," in row[1] else row[1]
        assert line == ",".join([row[0], field, *row[2:]])


def test_verify_shallow_depth_vacuous_lemma_rows(tmp_path):
    # depth 2: no block-pattern claims apply, everything else still passes
    code = main(["verify", "--generator", "constant:2", "--depth", "2",
                 "--out", str(tmp_path)])
    assert code == 0


def test_verify_reports_worst_value_per_family(tmp_path, capsys):
    import numpy as np

    from vilenkin.identities import run_suite

    assert main(["verify", "--generator", "cycle:2,3", "--depth", "6",
                 "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("verify: ") and "worst" not in captured.out
    worst = [line.split(" ", 3) for line in captured.err.splitlines()
             if line.startswith("worst ")]
    reports = run_suite(parse_generator("cycle:2,3", 6), np.random.default_rng(0))
    families = list(dict.fromkeys(r.name for r in reports if r.kind != "vacuous"))
    assert [w[1] for w in worst] == families
    for _, name, value, _ in worst:
        kind, number = value.split("=")
        values = [r.value for r in reports if r.name == name and r.kind == kind]
        expected = max(values) if kind == "deviation" else min(values)
        assert number == f"{expected:.3g}"


def test_malformed_generator_exits_2(tmp_path):
    assert main(["verify", "--generator", "1,2", "--out", str(tmp_path)]) == 2


def test_kernels_and_lebesgue(tmp_path):
    out = tmp_path / "k"
    assert main(["kernels", "--generator", "constant:2", "--depth", "3",
                 "--nmax", "8", "--out", str(out)]) == 0
    header = (out / "dirichlet.csv").read_text().splitlines()[0]
    assert header == "n,cell_index,value_re,value_im"
    assert main(["lebesgue", "--generator", "constant:2", "--depth", "3",
                 "--nmax", "8", "--out", str(out)]) == 0
    rows = dict(
        line.split(",") for line in
        (out / "lebesgue.csv").read_text().splitlines()[1:]
    )
    assert float(rows["2"]) == 1.0
    assert float(rows["3"]) == 1.5
    assert float(rows["4"]) == 1.0
    assert float(rows["8"]) == 1.0


def _old_kernel_csv(kernel, gen, nmax):
    """The kernel CSV as written row by row with format(x, ".17g")."""
    lines = ["n,cell_index,value_re,value_im"]
    for n in range(1, nmax + 1):
        for i, v in enumerate(kernel(n, gen).values):
            lines.append(f"{n},{i},{format(float(v.real), '.17g')},{format(float(v.imag), '.17g')}")
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize(
    "spec, depth, nmax",
    [
        ("constant:2", 5, 32),
        ("cycle:2,3,4", 4, 40),
        ("constant:3", 5, 243),
        # The radix-5 bench grids: many distinct complex values per block.
        ("2,2,2,2,3,5", 6, 16),
        ("5,3,2,2,2,2", 6, 16),
        # M_N = 8192 > 4096 cells: every block is a single row.
        ("constant:2", 13, 3),
    ],
)
def test_kernel_csvs_byte_equal_to_per_n_formatting(tmp_path, spec, depth, nmax):
    from vilenkin import dirichlet, fejer_kernel

    assert main(["kernels", "--generator", spec, "--depth", str(depth),
                 "--nmax", str(nmax), "--out", str(tmp_path)]) == 0
    gen = parse_generator(spec, depth)
    assert read(tmp_path / "dirichlet.csv") == _old_kernel_csv(dirichlet, gen, nmax)
    assert read(tmp_path / "fejer.csv") == _old_kernel_csv(fejer_kernel, gen, nmax)
    if spec == "constant:3":
        # D_n on 3^5 takes the value -0.0 in some real parts as well as 0.0.
        assert b",-0," in read(tmp_path / "dirichlet.csv")


def test_walsh_kernel_csvs_have_zero_imaginary_parts(tmp_path):
    # Walsh kernels are real; with exact characters they synthesize in
    # float64, where complex round-off left value_im nonzero in most rows.
    assert main(["kernels", "--generator", "constant:2", "--depth", "6",
                 "--nmax", "64", "--out", str(tmp_path)]) == 0
    for name in ("dirichlet.csv", "fejer.csv"):
        with open(tmp_path / name, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 64 * 64
        assert {row["value_im"] for row in rows} == {"0"}, name


def test_lebesgue_and_variation_match_per_n_oracles(tmp_path):
    from vilenkin import lebesgue_constant, variation

    gen = parse_generator("cycle:2,3,4", 4)
    assert main(["lebesgue", "--generator", "cycle:2,3,4", "--depth", "4",
                 "--nmax", str(gen.size), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "lebesgue.csv").read_text().splitlines()[1:]
    assert lines == [f"{n},{format(lebesgue_constant(n, gen), '.17g')}"
                     for n in range(1, gen.size + 1)]
    assert main(["variation", "--generator", "cycle:2,3,4", "--depth", "4",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "variation.csv").read_text().splitlines()[1:]
    expected = []
    for n in range(1, gen.depth + 1):
        Mn = gen.scale[n]
        mean = sum(variation(l, gen) for l in range(1, Mn)) / (Mn - 1)
        expected.append(f"{n},{format(mean, '.17g')},{format(mean / n, '.17g')}")
    assert lines == expected


def test_lebesgue_csv_is_lebesgue_constant_on_a_mixed_grid(tmp_path):
    # 21 complex rows of 192 cells to a block: 64 orders span four blocks,
    # each reduced at once, and every line matches L_n bit for bit, also
    # the L_1 norm of D_n taken as a function of its own.
    from vilenkin import dirichlet, lebesgue_constant, lp_quasinorm

    gen = parse_generator("2,2,2,3,2,4", None)
    assert main(["lebesgue", "--generator", "2,2,2,3,2,4", "--nmax", "64",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "lebesgue.csv").read_text().splitlines()[1:]
    assert lines == [f"{n},{format(lebesgue_constant(n, gen), '.17g')}"
                     for n in range(1, 65)]
    assert lines == [f"{n},{format(lp_quasinorm(dirichlet(n, gen), 1.0), '.17g')}"
                     for n in range(1, 65)]


def test_lebesgue_csv_is_lebesgue_constant_on_coarse_grids(tmp_path):
    # D_n for n <= 243 lies on the 243 cells of 3^5, the rest on all 729:
    # a line is L_n alone to the byte, whatever block its row was made in.
    from vilenkin import lebesgue_constant

    gen = parse_generator("constant:3", 6)
    assert main(["lebesgue", "--generator", "constant:3", "--depth", "6", "--nmax", "300",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "lebesgue.csv").read_text().splitlines()[1:]
    assert lines == [f"{n},{format(lebesgue_constant(n, gen), '.17g')}" for n in range(1, 301)]


def test_lebesgue_scale_rows_exact(tmp_path):
    assert main(["lebesgue", "--generator", "cycle:2,3", "--depth", "4",
                 "--nmax", "36", "--out", str(tmp_path)]) == 0
    rows = dict(
        line.split(",") for line in
        (tmp_path / "lebesgue.csv").read_text().splitlines()[1:]
    )
    for scale in (1, 2, 6, 12, 36):
        assert float(rows[str(scale)]) == pytest.approx(1.0, abs=1e-12)


def test_variation_table(tmp_path):
    assert main(["variation", "--generator", "constant:2", "--depth", "8",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "variation.csv").read_text().splitlines()
    assert lines[0] == "n,mean_v,mean_v_over_n"
    first = lines[1].split(",")
    assert first[0] == "1" and float(first[1]) == 2.0
    # running mean over [1, M_n) grows linearly; ratio settles near 1/2
    ratios = [float(line.split(",")[2]) for line in lines[2:]]
    assert abs(ratios[-1] - 0.5) < 0.1 * 0.5 + 0.1


def test_counterexample_divergence_run(tmp_path):
    out = tmp_path / "ce"
    assert main(["counterexample", "--generator", "constant:2", "--depth", "10",
                 "--phi", "const:1", "--alphas", "4,5,6,7,8,9",
                 "--out", str(out)]) == 0
    lines = (out / "counterexample.csv").read_text().splitlines()
    assert lines[0] == "k,alpha_k,M_alpha,lambda_k,n,T_n,v_mean,norm_sigma"
    t_vals = [float(line.split(",")[5]) for line in lines[1:]]
    assert t_vals == sorted(t_vals)
    summary = (out / "summary.txt").read_text()
    assert "regime=diverging" in summary


def test_counterexample_bounded_regime(tmp_path):
    out = tmp_path / "ce"
    assert main(["counterexample", "--generator", "constant:2", "--depth", "10",
                 "--phi", "logpow:2", "--alphas", "4,5,6,7,8,9",
                 "--out", str(out)]) == 0
    assert "regime=bounded" in (out / "summary.txt").read_text()


def test_counterexample_single_alpha_skips_fit(tmp_path):
    out = tmp_path / "ce"
    assert main(["counterexample", "--generator", "constant:2", "--depth", "8",
                 "--phi", "const:1", "--alphas", "4", "--out", str(out)]) == 0
    assert "fit=skipped" in (out / "summary.txt").read_text()


def test_counterexample_large_finite_weight_runs(tmp_path):
    # The largest cell value is about 1.0e302, which is finite; const:1e308 is
    # refused (BAD_INPUTS).
    out = tmp_path / "ce"
    assert main(["counterexample", "--generator", "constant:2", "--depth", "8",
                 "--phi", "const:1e300", "--alphas", "2,4", "--out", str(out)]) == 0
    assert "regime=diverging" in (out / "summary.txt").read_text()


@pytest.mark.parametrize("alphas,rank", [("0,2", "0"), ("-1,3", "-1")])
def test_counterexample_rank_zero_fails(tmp_path, capsys, alphas, rank):
    # log M_0 = 0, so ranks below 1 are refused as a config error
    assert main(["counterexample", "--generator", "constant:2", "--depth", "4",
                 "--phi", "const:1", f"--alphas={alphas}",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"rank {rank} " in err, err


def test_counterexample_greedy_infeasible_is_config_error(tmp_path):
    assert main(["counterexample", "--generator", "constant:2", "--depth", "8",
                 "--phi", "const:1", "--alphas", "greedy:5",
                 "--out", str(tmp_path)]) == 2


# --- determinism -------------------------------------------------------------


RUN_ALL_ARGS = [
    ["verify", "--generator", "cycle:2,3", "--depth", "6", "--seed", "7"],
    ["kernels", "--generator", "constant:2", "--depth", "4", "--nmax", "6"],
    ["lebesgue", "--generator", "constant:3", "--depth", "3", "--nmax", "20"],
    ["variation", "--generator", "constant:2", "--depth", "7"],
    ["counterexample", "--generator", "constant:2", "--depth", "9",
     "--phi", "const:1", "--alphas", "3,5,7"],
]


def run_all(base):
    for i, args in enumerate(RUN_ALL_ARGS):
        assert main(args + ["--out", str(base / str(i))]) == 0


def run_all_under_blas_threads(base, threads):
    """The same commands, each in a fresh interpreter with `threads` BLAS workers."""
    src = str(Path(vilenkin.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    for i, args in enumerate(RUN_ALL_ARGS):
        subprocess.run(
            [sys.executable, "-m", "vilenkin.cli", *args, "--out", str(base / str(i))],
            env=env, capture_output=True, check=True, timeout=300,
        )


def collect(base):
    return {
        str(p.relative_to(base)): p.read_bytes()
        for p in sorted(base.rglob("*")) if p.is_file()
    }


def test_outputs_byte_identical_across_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_all(a)
    run_all(b)
    assert collect(a) == collect(b)


def test_outputs_byte_identical_across_reruns_and_threads(tmp_path):
    # BLAS is the only part that runs on several threads.
    run_all(tmp_path / "in_process")
    expected = collect(tmp_path / "in_process")
    for threads in (1, 2):
        base = tmp_path / f"blas{threads}"
        run_all_under_blas_threads(base, threads)
        assert collect(base) == expected, threads
