#!/usr/bin/env bash
# Records one set of runs: every workload once per seed, each in its own
# process, appended to a JSON-lines file that -compare reads.
#
#   bash benchmark/aa.sh out.jsonl            # seeds 1..10, untraced
#   bash benchmark/aa.sh out.jsonl 1 3 1      # seeds 1..3, traced
set -euo pipefail
out="$1"; first="${2:-1}"; last="${3:-10}"; trace="${4:-0}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
for seed in $(seq "$first" "$last"); do
  for w in explore-cold serve-hot serve-churn ingest-mixed shard-scatter; do
    bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds 20 --trace "$trace" --record "$out" | tail -n 1 | cut -c1-120
  done
done
