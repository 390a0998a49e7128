#!/bin/sh
# Builds the end-to-end benchmark from source in the checkout that holds
# this script, then runs it with the given arguments, e.g.
#   sh bench/e2e/run.sh --workload fig3-sweep --seed 42 --seconds 20 --trace 0
set -e
cd "$(dirname "$0")/../.."
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/e2e.exe
exec ./_build/default/bench/e2e/e2e.exe "$@"
