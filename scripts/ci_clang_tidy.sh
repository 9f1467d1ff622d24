#!/usr/bin/env bash
# Gating clang-tidy run over the static-analysis subsystem (DESIGN.md §10).
#
# The repo-wide .clang-tidy profile is advisory via -DPOPBEAN_CLANG_TIDY=ON;
# this script is the *gating* subset CI enforces: every translation unit of
# the verifier (src/verify, src/analysis) and the lint CLI must be clean
# with the full curated check set promoted to errors. A compile database
# (CMAKE_EXPORT_COMPILE_COMMANDS=ON) must exist in the build tree.
#
# Usage: scripts/ci_clang_tidy.sh [build-dir]
set -u -o pipefail

BUILD_DIR="${1:-build}"
if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
  echo "no compile database at '$BUILD_DIR/compile_commands.json'" \
       "(configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)" >&2
  exit 2
fi

TIDY_BIN="${CLANG_TIDY:-clang-tidy}"
if ! command -v "$TIDY_BIN" > /dev/null; then
  echo "clang-tidy not found (set CLANG_TIDY to override)" >&2
  exit 2
fi

# The verifier's translation units plus the CLI that drives them, globbed so
# that a unit added to or moved between src/verify and src/analysis is
# linted without editing this list. Headers under both directories ride
# along via the header filter.
if [[ ! -f tools/popbean_lint.cpp ]]; then
  echo "missing source 'tools/popbean_lint.cpp' (run from the repo root)" >&2
  exit 2
fi
SOURCES=(src/verify/*.cpp src/analysis/*.cpp tools/popbean_lint.cpp)

echo "=== clang-tidy (gating) over ${#SOURCES[@]} translation units ==="
"$TIDY_BIN" --version | head -2
"$TIDY_BIN" -p "$BUILD_DIR" \
  --header-filter='.*/src/(verify|analysis)/.*' \
  --warnings-as-errors='*' \
  "${SOURCES[@]}"
STATUS=$?
if [[ $STATUS -ne 0 ]]; then
  echo "FAIL: clang-tidy reported findings (status $STATUS)" >&2
  exit 1
fi
echo "PASS: src/verify + src/analysis + popbean_lint.cpp are tidy-clean"
