#!/bin/sh
# Builds the benchmark from source in this checkout and runs it; every
# argument is passed on to benchmark/main.exe. The workspace root is pinned
# to the checkout, dune's shared cache is off and the compilers' temporary
# files go under benchmark/results, so a run writes nothing outside it.
cd "$(dirname "$0")/.." || exit 2
TMPDIR="$PWD/benchmark/results/tmp"
mkdir -p "$TMPDIR" || exit 2
export TMPDIR
exec dune exec --root . --cache=disabled --display=quiet ./benchmark/main.exe -- "$@"
