#!/usr/bin/env bash
# Samples one command's CPU and prints the symbolized tables.
#
#   tools/cpu_profile/profile.sh <output prefix> <command> [args...]
#
# Builds the sampler into build/cpu_profile/ on first use, runs the
# command with it preloaded, and symbolizes every profile the command's
# processes wrote (<output prefix>.<pid>).  CPU_PROFILE_INTERVAL_US sets
# the sampling period (default 2000 us of process CPU time).
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <output prefix> <command> [args...]" >&2
  exit 2
fi
here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/../.." && pwd)"
lib="$root/build/cpu_profile/libcpu_profile.so"
if [[ ! -f "$lib" || "$here/sampler.c" -nt "$lib" ]]; then
  mkdir -p "$(dirname "$lib")"
  cc -O2 -g -shared -fPIC "$here/sampler.c" -o "$lib"
fi
prefix="$1"
shift
status=0
CPU_PROFILE_OUT="$prefix" LD_PRELOAD="$lib" "$@" || status=$?
for profile in "$prefix".[0-9]*; do
  [[ -f "$profile" ]] || continue
  echo "== $profile"
  python3 "$here/symbolize.py" "$profile"
done
exit "$status"
