#!/usr/bin/env bash
# Runs alternating parent/change ledger pairs, then compares them with
# pcmd_ledger --compare (verdict rules in compare.hpp).
#
#   bench/ledger/pairs.sh PARENT_LEDGER CHANGE_LEDGER [PAIRS] [SEED] [OUT]
#                         [-- pcmd_ledger flags...]
#
# PARENT_LEDGER and CHANGE_LEDGER are pcmd_ledger binaries built from the
# two commits, e.g. <checkout>/.bench_build/pcmd_ledger after running
# bench/ledger/run.py --registry once in each checkout. PAIRS defaults to
# 10, SEED to 1000, OUT to ./ledger-pairs. Pair i runs both sides with seed
# SEED+i; odd pairs run the parent first, even pairs the change first, so
# slow drift of the host hits both sides alike. Flags after "--" go to
# every run, e.g. -- --workload gas_p16.seq,gas_p16.thread --trace 0
set -euo pipefail

if [[ $# -lt 2 ]]; then
  sed -n '2,16p' "$0" >&2
  exit 2
fi
parent=$1
change=$2
shift 2
pairs=10
seed0=1000
out=ledger-pairs
for var in pairs seed0 out; do
  if [[ $# -gt 0 && $1 != "--" ]]; then
    printf -v "$var" '%s' "$1"
    shift
  fi
done
[[ $# -gt 0 && $1 == "--" ]] && shift

mkdir -p "$out"
for ((i = 1; i <= pairs; i++)); do
  seed=$((seed0 + i))
  if ((i % 2)); then order=(parent change); else order=(change parent); fi
  for side in "${order[@]}"; do
    binary=$parent
    [[ $side == change ]] && binary=$change
    tag=$(printf '%s-%03d' "$side" "$i")
    echo "pair $i/$pairs: $side (seed $seed)" >&2
    "$binary" --seed "$seed" --out "$out/$tag.json" "$@" > "$out/$tag.log"
  done
done
"$change" --compare "$out"/parent-*.json --against "$out"/change-*.json
