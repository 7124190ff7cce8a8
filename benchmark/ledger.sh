#!/usr/bin/env bash
# Records a ledger: every workload on seeds 1..N (default 10), each run in
# its own process, appended to OUT and stamped with $WMBENCH_COMMIT.
# "reverse" runs the workloads in reverse order; "trace" records one
# traced run per workload instead.  Run it from the root of a checkout:
#
#   WMBENCH_COMMIT=$(git rev-parse HEAD) bash benchmark/ledger.sh benchmark/results/seed-a.json
#   WMBENCH_COMMIT=$(git rev-parse HEAD) bash benchmark/ledger.sh benchmark/results/seed-b.json 10 reverse
#   WMBENCH_COMMIT=$(git rev-parse HEAD) bash benchmark/ledger.sh benchmark/results/traced.json 1 trace
set -euo pipefail
out=$1
seeds=${2:-10}
mode=${3:-forward}
workloads=(suite-compile suite-sim serve-mixed jobs-repeat)
if [ "$mode" = reverse ]; then
	workloads=(jobs-repeat serve-mixed suite-sim suite-compile)
fi
trace=0
if [ "$mode" = trace ]; then
	trace=1
fi
for seed in $(seq 1 "$seeds"); do
	for w in "${workloads[@]}"; do
		bash "$(dirname "$0")/run.sh" --workload "$w" --seed "$seed" --seconds 20 --trace "$trace" --out "$out" >/dev/null
	done
done
