#!/bin/sh
# Repo verification for CI hooks that call a script: `make verify`, which is
# tier-1 followed by the fmt, race, lint, bench-smoke, checktags, chaos, soak
# and fuzz tiers. Each tier is described at its Makefile target.
cd "$(dirname "$0")/.." && exec make verify
