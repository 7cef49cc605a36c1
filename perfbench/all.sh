#!/usr/bin/env bash
# Runs every workload once and prints all their result records and
# result lines, end-to-end metrics first, then the traced per-layer run:
#
#   bash perfbench/all.sh [SEED] [SECONDS]
set -euo pipefail
seed="${1:-1}"
seconds="${2:-20}"
dir="$(dirname "${BASH_SOURCE[0]}")"
for trace in 0 1; do
	for w in fleet-sim composition-search corpus-report serve-mixed; do
		bash "$dir/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace"
	done
done
