#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs it:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root.  Build output goes to stderr so the last
# stdout line stays the benchmark's JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the repository root (no dune-project or lib/ here)" >&2
  exit 1
fi

# keep dune's shared cache out of the picture: build only inside the checkout
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
