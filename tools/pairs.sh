#!/usr/bin/env bash
# Alternating base/change pairs of one benchmark workload: the protocol
# of benchmark/README.md "Comparing two commits" for a change that
# claims a gain. The base revision is checked out with `git worktree`
# under .bench_build/, the change is this checkout as it stands; each
# pair runs both at one seed, in the foreground, the side that goes
# first alternating; then -compare judges the two records, the worktree
# is removed and the script exits with -compare's status.
#
#   tools/pairs.sh <workload> [base-rev] [pairs]     # defaults: HEAD~1, 10
#   make pairs W=serve-churn BASE=HEAD~1 N=10
#
# Every child runs under `timeout` and nothing is backgrounded, so no
# process outlives the script.
set -euo pipefail
w="${1:?usage: tools/pairs.sh <workload> [base-rev] [pairs]}"
base="${2:-HEAD~1}"
n="${3:-10}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
tree="$root/.bench_build/pairs-base"
out="$root/.bench_build/pairs"

cleanup() {
  timeout 120 git worktree remove --force "$tree" >/dev/null 2>&1 || true
  timeout 60 git worktree prune >/dev/null 2>&1 || true
}
trap cleanup EXIT
cleanup
mkdir -p "$out"
rm -f "$out/base.jsonl" "$out/change.jsonl"
timeout 120 git worktree add --detach "$tree" "$base" >/dev/null

# run <side> <checkout> <seed>: one recorded run; the first on a side
# also builds it (a cold cache, hence the long limit).
run() {
  (cd "$2" && timeout 900 bash benchmark/run.sh --workload "$w" --seed "$3" --seconds 20 --trace 0 --record "$out/$1.jsonl" | tail -n 1 | cut -c1-120)
}
for seed in $(seq 1 "$n"); do
  if [ $((seed % 2)) = 1 ]; then order="change base"; else order="base change"; fi
  for side in $order; do
    echo "pair $seed/$n $side"
    if [ "$side" = base ]; then run base "$tree" "$seed"; else run change "$root" "$seed"; fi
  done
done
timeout 300 bash benchmark/run.sh -compare "$out/base.jsonl" "$out/change.jsonl"
