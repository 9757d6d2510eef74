#!/usr/bin/env bash
# Builds the benchmark from source, then runs one workload.  Run it from
# the root of a checkout; arguments pass through to owlbench:
#
#   bash perfbench/run.sh --workload synth-table1 --seed 1 --seconds 15 --trace 0
#
# Build output goes to standard error, so the last line of standard output
# is the run's JSON result.  The dune cache stays off so the build reads and
# writes nothing outside the checkout.
set -euo pipefail
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . --cache=disabled ./perfbench/owlbench.exe 1>&2
exec ./_build/default/perfbench/owlbench.exe "$@"
