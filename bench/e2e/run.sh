#!/bin/sh
# Builds rcc_bench from the checkout it is run in and runs it with the
# given arguments. Run it from the repository root:
#
#   sh bench/e2e/run.sh --workload paper-multip --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last stdout line is the result.
set -e
if [ ! -f dune-project ]; then
  echo "run.sh: no dune-project here; run from the repository root" >&2
  exit 2
fi
dune build --root . --cache=disabled --display=quiet ./bench/e2e/rcc_bench.exe 1>&2
exec ./_build/default/bench/e2e/rcc_bench.exe "$@"
