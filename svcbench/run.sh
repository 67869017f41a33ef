#!/bin/sh
# Build the agrid binary and the benchmark from this checkout, then run
# the benchmark with the given arguments (see svcbench.ml or README.md).
# Run from the repository root.
set -e
export DUNE_CACHE=disabled
dune build --root . ./bin/agrid.exe ./svcbench/svcbench.exe 1>&2
exec ./_build/default/svcbench/svcbench.exe --agrid _build/default/bin/agrid.exe "$@"
