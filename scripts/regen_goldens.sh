#!/usr/bin/env bash
# Rewrite the cross-commit behaviour goldens (tests/golden/*.txt) from the
# current build, then show what changed. Every golden change must be
# justified in CHANGES.md.
#
#   scripts/regen_goldens.sh [build-dir]    (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
build="${1:-build}"

mkdir -p tests/golden
cmake --build "$build" --target golden_results_test -j
HCRL_REGEN_GOLDENS=1 "$build/tests/golden_results_test" --gtest_brief=1
git status --short -- tests/golden
