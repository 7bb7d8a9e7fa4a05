#!/bin/sh
# Build rgsminer, rgsminerd and the benchmark from source, then run one
# workload:
#
#   sh perfbench/run.sh --workload paper_all --seed 42 --seconds 20 --trace 0
#
# Must be started from (or point into) a full source tree of the
# repository; anywhere else it exits non-zero without printing a result.

set -e
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: $root is not a source tree of the repository" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1; then
  echo "perfbench: dune not found on PATH" >&2
  exit 2
fi
# DUNE_CACHE=disabled keeps every build artefact inside this tree.
DUNE_CACHE=disabled dune build --root . ./bin/rgsminer.exe ./bin/rgsminerd.exe \
  ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
