#!/usr/bin/env bash
# The end-to-end benchmark's one command.  Run from the root of a
# checkout: builds the solarstorm CLI and the driver from source, then
# hands every argument to the driver, e.g.
#
#   bash bench/e2e/run.sh --workload serve-hit --seed 1 --seconds 20 --trace 0
#   bash bench/e2e/run.sh record --seed 1 --seconds 20 --out seed-01.json --traced
#   bash bench/e2e/run.sh compare --parent a*.json --change b*.json
#
# Build output goes to stderr; the last stdout line of a run is its
# result object.  See bench/e2e/README.md.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f bin/solarstorm.ml ]; then
  echo "bench/e2e/run.sh: run from the root of a solarstorm checkout" >&2
  exit 2
fi

# Keep every build artefact inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . bin/solarstorm.exe bench/e2e/driver.exe 1>&2

exec ./_build/default/bench/e2e/driver.exe "$@" --bin ./_build/default/bin/solarstorm.exe
