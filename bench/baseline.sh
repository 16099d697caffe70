#!/usr/bin/env bash
# Regenerates bench/baseline/seed1.json: every workload at seed 1, once
# untraced (end-to-end metrics, result digest) and once traced (the
# per-layer table). Run it from the repository root:
#
#   bash bench/baseline.sh
#
# The file holds one report object per run, as the benchmark prints it
# on the line before its result line.
set -euo pipefail
out=bench/baseline/seed1.json
mkdir -p "$(dirname "$out")"
{
	echo '{"seed": 1, "seconds": 15, "runs": ['
	sep=' '
	for w in accel-finegrain platform-full software-runtime stream-window paper-sweep; do
		for t in 0 1; do
			report=$(bash bench/run.sh --workload "$w" --seed 1 --seconds 15 --trace "$t" | tail -n 2 | sed -n 1p)
			printf '%s%s\n' "$sep" "$report"
			sep=','
		done
	done
	echo ']}'
} > "$out.tmp"
mv "$out.tmp" "$out"
