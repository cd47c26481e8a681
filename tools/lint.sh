#!/usr/bin/env bash
# Repository lint: clang-format plus pcmd-analyze. Run from anywhere; exits
# non-zero on any finding.
#
# The grep-era hygiene rules (naked assert, std::rand, include sorting) now
# live in tools/analyze as real tokenizer-backed rules alongside the layering,
# cycle, determinism and wire-pairing checks — this script is a thin wrapper:
#
#   1. clang-format --dry-run must be clean (skipped with a notice when
#      clang-format is not installed — the CI lint job has it).
#   2. pcmd-analyze over the whole tree must report zero findings. The
#      analyzer is configured standalone from tools/analyze so a bare lint
#      runner needs only cmake and a C++20 compiler, not GTest.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

sources() {
  git ls-files '*.cpp' '*.hpp' | grep -v '^build'
}

failures=0
fail() {
  echo "lint: $1" >&2
  failures=$((failures + 1))
}

# ---- clang-format ----------------------------------------------------------
if command -v clang-format > /dev/null 2>&1; then
  unformatted=$(sources | xargs clang-format --dry-run 2>&1 | head -50)
  if [ -n "$unformatted" ]; then
    echo "$unformatted" >&2
    fail "clang-format found unformatted files (run: git ls-files '*.cpp' '*.hpp' | xargs clang-format -i)"
  fi
else
  echo "lint: clang-format not installed; skipping format check" >&2
fi

# ---- pcmd-analyze ----------------------------------------------------------
builddir="$root/build/analyze-lint"
if ! cmake -S "$root/tools/analyze" -B "$builddir" > /dev/null; then
  fail "could not configure tools/analyze"
elif ! cmake --build "$builddir" -j > /dev/null; then
  fail "could not build pcmd-analyze"
elif ! "$builddir/pcmd-analyze" --root "$root"; then
  fail "pcmd-analyze reported findings (rule catalog: tools/analyze/analyzer.hpp)"
fi

if [ "$failures" -gt 0 ]; then
  echo "lint: $failures rule(s) failed" >&2
  exit 1
fi
echo "lint: OK"
