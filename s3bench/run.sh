#!/usr/bin/env bash
# Build the benchmark harness from source, then run it with the given
# arguments. Run from the repository root; build output goes to
# stderr so that the harness's last stdout line is its JSON result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "s3bench: run from the root of a full checkout (dune-project and lib/ not found)" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; build without it.
DUNE_CACHE=disabled dune build --root . ./s3bench/main.exe 1>&2
exec ./_build/default/s3bench/main.exe "$@"
