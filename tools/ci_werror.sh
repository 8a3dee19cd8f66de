#!/usr/bin/env bash
# Warning gate: builds every target of the default RelWithDebInfo
# configuration with -Werror (the `werror` preset, in build-werror/), so
# a new -Wall -Wextra -Wshadow warning fails CI instead of piling up.
# Warnings are to be fixed, not suppressed.  Then runs the tier-1 tests
# from that build.
#
# Usage: tools/ci_werror.sh
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

echo "=== [werror] configure + build ==="
cmake --preset werror
cmake --build --preset werror -j "$JOBS"
echo "=== [werror] ctest ==="
ctest --preset werror -j "$JOBS"
echo "=== [werror] OK ==="
