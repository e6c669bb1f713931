#!/bin/sh
# Write the outputs of a fixed set of vilenkin CLI commands under <out-dir>.
#
#   scripts/cli_outputs.sh <out-dir>
#
# Two runs of this script must give byte-identical trees (`diff -r`): under
# one and two BLAS threads (OPENBLAS_NUM_THREADS), or from two checkouts
# (PYTHONPATH=<checkout>/src), to show that a refactor moves no output.
set -eu
if [ "$#" -ne 1 ]; then
  echo "usage: $0 <out-dir>" >&2
  exit 2
fi
out=$1
cli() { python -m vilenkin.cli "$@"; }

cli verify --generator cycle:2,3,4 --depth 6 --out "$out/verify"
# verify reads one kernel table per chunk of checks: a bench grid (one
# table), float64 Walsh rows, and a grid run in several tables.
cli verify --generator 2,2,2,3,2,4 --out "$out/verify-mixed"
cli verify --generator constant:2 --depth 10 --out "$out/verify-walsh"
cli verify --generator constant:3 --depth 7 --out "$out/verify-chunked"
cli kernels --generator cycle:2,3,4 --depth 5 --nmax 96 --out "$out/kernels"
cli lebesgue --generator constant:3 --depth 5 --nmax 100 --out "$out/lebesgue"
# The float64 Walsh path and the exact radix-4 characters.
cli kernels --generator constant:2 --depth 6 --nmax 64 --out "$out/kernels-walsh"
cli lebesgue --generator constant:4 --depth 5 --nmax 100 --out "$out/lebesgue-radix4"
# A bench grid of 192 cells: many complex kernel rows in each block.
cli lebesgue --generator 2,2,2,3,2,4 --out "$out/lebesgue-mixed"
cli kernels --generator 2,2,2,3,2,4 --nmax 16 --out "$out/kernels-mixed"
# A radix-5 bench grid: many distinct complex values in each block's table.
cli kernels --generator 2,2,2,2,3,5 --nmax 16 --out "$out/kernels-radix5"
# Rows of 27 648 complex cells (432 KiB): the axis pass applies its later
# runs in place.
cli kernels --generator cycle:2,3,4 --depth 10 --nmax 3 --out "$out/kernels-inplace"
# Dirichlet rows on their coarse grids, at exactly the 2^26-cell budget.
cli lebesgue --generator constant:2 --depth 20 --out "$out/lebesgue-walsh20"
# Dirichlet rows on the coarse mixed-radix grids of 144, 576 and 1152
# cells, several blocks on each.
cli lebesgue --generator cycle:2,3,4 --depth 7 --nmax 1000 --out "$out/lebesgue-cycle"
cli counterexample --generator constant:2 --depth 12 \
  --phi const:1 --alphas 4,5,6,7,8,9,10,11 --out "$out/counterexample"
cli counterexample --generator cycle:2,3,4 --depth 8 \
  --phi logpow:0.5 --alphas 2,4,6 --out "$out/counterexample-cycle"
# Radix-3 block atoms, written from Paley's lemma, not synthesized.
cli counterexample --generator constant:3 --depth 7 \
  --phi const:1 --alphas 2,4,6 --out "$out/counterexample-radix3"
# The divergence bench grid: Fejer profile rows on the coarse grids.
cli counterexample --generator constant:2 --depth 9 \
  --phi logpow:0.5 --alphas 2,5,8 --out "$out/counterexample-walsh9"
