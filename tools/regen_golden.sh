#!/usr/bin/env bash
# Regenerate the golden snapshots under tests/golden/data/ after an
# intentional change to an experiment's output. Rebuilds the study CLI,
# rewrites every <id>.json plus obs.json (the stable observability JSON of
# the same run) at the canonical quick scale (seed 2019, faults off — the
# flag forces ENCDNS_FAULTS=off itself), and shows what changed so the diff
# can be reviewed before committing.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target encdns_study

"$BUILD_DIR/tools/encdns_study" --golden-dir tests/golden/data

echo
echo "== snapshot diff (commit these with the change that caused them) =="
git --no-pager diff --stat -- tests/golden/data || true
