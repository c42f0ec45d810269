#!/usr/bin/env bash
# Alternating base/change pairs of one benchmark workload: the protocol
# of benchmark/README.md "Comparing two commits" for a change that
# claims a gain, run in chunks so that no call outlives one foreground
# shell command. Pair k runs seed k on both sides, the side that goes
# first alternating with k; the change is this checkout as it stands.
#
#   tools/pairs.sh <workload> <base-rev> <from> <to> [pairs]   # pairs defaults to 10
#   make pairs W=serve-hot BASE=HEAD~1 FROM=1 TO=4     # then FROM=5 TO=8, FROM=9 TO=10
#
# The records accumulate in .bench_build/pairs/{base,change}.jsonl
# across calls; a call with FROM=1 starts them afresh. The base revision
# is exported with `git archive` into .bench_build/pairs-base and reused
# by every later call while it still holds that revision. The call whose
# TO reaches the pair count is the last: it prints -compare over all
# the records, removes the export and exits with -compare's status.
#
# A 20 s run takes 21-22 s of wall time, and the first run on a side
# builds it from a cold cache (about 20 s more on two cores), so ten
# pairs come to about ten minutes, the ceiling of one shell call. A call
# therefore runs at most four pairs: eight runs of at most $limit s each
# and the -compare fit in the 590 s of `timeout 590 make pairs ...`.
#
# Every child runs under `timeout --foreground` and nothing is
# backgrounded. Without --foreground, timeout would move its child into
# a process group of its own, which the group kill of an outer timeout
# does not reach; in the foreground mode every child stays in the
# caller's group, so killing the call kills all of it. A run that hits
# its own limit loses only its direct child: the benchmark binary, which
# run.sh execs once it is built.
set -euo pipefail
usage="usage: tools/pairs.sh <workload> <base-rev> <from> <to> [pairs]"
w="${1:?$usage}"
base="${2:?$usage}"
from="${3:?$usage}"
to="${4:?$usage}"
n="${5:-10}"
limit=65
if [ "$to" -lt "$from" ] || [ $((to - from)) -ge 4 ]; then
  echo "tools/pairs.sh: pairs $from..$to: a call runs 1 to 4 pairs; split the rest into further calls" >&2
  exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
tree="$root/.bench_build/pairs-base"
out="$root/.bench_build/pairs"

rev="$(git rev-parse --verify "$base^{commit}")"
if [ "$(cat "$tree/.rev" 2>/dev/null)" != "$rev" ]; then
  rm -rf "$tree"
  mkdir -p "$tree"
  git archive "$rev" | tar -x -C "$tree"
  echo "$rev" >"$tree/.rev"
fi
mkdir -p "$out"
if [ "$from" = 1 ]; then
  rm -f "$out/base.jsonl" "$out/change.jsonl"
fi

# run <side> <checkout> <seed> <commit>: one recorded run; the first on
# a side also builds it.
run() {
  (cd "$2" && TGRAPH_BENCH_COMMIT="$4" timeout --foreground -k 5 "$limit" bash benchmark/run.sh --workload "$w" --seed "$3" --seconds 20 --trace 0 --record "$out/$1.jsonl" | tail -n 1 | cut -c1-120)
}
for seed in $(seq "$from" "$to"); do
  if [ $((seed % 2)) = 1 ]; then order="change base"; else order="base change"; fi
  for side in $order; do
    echo "pair $seed/$n $side"
    if [ "$side" = base ]; then
      run base "$tree" "$seed" "$(git rev-parse --short "$rev")"
    else
      run change "$root" "$seed" "$(git rev-parse --short HEAD)"
    fi
  done
done
if [ "$to" -ge "$n" ]; then
  status=0
  timeout --foreground -k 5 30 bash benchmark/run.sh -compare "$out/base.jsonl" "$out/change.jsonl" || status=$?
  rm -rf "$tree"
  exit "$status"
fi
