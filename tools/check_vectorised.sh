#!/usr/bin/env bash
# Fails unless GCC vectorises every loop that SOURCE tags with a trailing
# "// vectorised" on its `for` line.
#
#   tools/check_vectorised.sh BUILD_DIR TARGET OBJECT REPORT SOURCE
#
# TARGET is an object library that compiles SOURCE with the build's flags
# plus -fopt-info-vec-optimized=REPORT, and OBJECT its object file. GCC
# appends to REPORT, so both are deleted first and TARGET is rebuilt: the
# report then describes the source as it is now.
set -euo pipefail

if [[ $# -ne 5 ]]; then
  sed -n '2,10p' "$0" >&2
  exit 2
fi
build_dir=$1
target=$2
object=$3
report=$4
source=$5

rm -f "$object" "$report"
cmake --build "$build_dir" --target "$target" > /dev/null
name=$(basename "$source")
tagged=$(grep -nE '^[[:space:]]*for \(.*// vectorised$' "$source" | cut -d: -f1)
if [[ -z $tagged ]]; then
  echo "$name: no loop tagged '// vectorised'" >&2
  exit 1
fi
status=0
for line in $tagged; do
  if grep -qE "$name:$line:[0-9]+: optimized: loop vectorized" "$report"; then
    echo "$name:$line: loop vectorized"
  else
    echo "$name:$line: tagged loop NOT vectorized" >&2
    status=1
  fi
done
exit "$status"
