#!/usr/bin/env bash
# Runs every workload of BENCHMARK.json in fresh processes, PASSES times into
# each of two sets (A and B) of the same commit, then prints per workload and
# end-to-end metric each set's median and quartiles, its spread, and whether
# the two sets agree within the metric's bound (tgbench -compare):
#
#   bash bench/run.sh [PASSES] [SECONDS]
#
# PASSES defaults to 5, SECONDS to run_seconds in BENCHMARK.json. The
# workload order alternates from pass to pass, and so does which set runs
# first. Set A uses seeds 1..PASSES and set B seeds 101..100+PASSES, since
# spreads are judged across seeds. Records and logs go to
# .bench_build/runs/<time>/; the exit status is non-zero when some pair
# disagrees or is noisier than its bound.
set -euo pipefail

bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$bench/.." && pwd)
passes=${1:-5}
seconds=${2:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")}
mapfile -t workloads < <(sed -n 's/.*"name": *"\([^"]*\)", *"why".*/\1/p' "$root/BENCHMARK.json")
out="$root/.bench_build/runs/$(date +%Y%m%dT%H%M%S)"
mkdir -p "$out"

for ((i = 1; i <= passes; i++)); do
	order=("${workloads[@]}")
	sets=(A B)
	if ((i % 2 == 0)); then
		order=()
		for ((k = ${#workloads[@]} - 1; k >= 0; k--)); do
			order+=("${workloads[k]}")
		done
		sets=(B A)
	fi
	for set in "${sets[@]}"; do
		seed=$i
		if [[ $set == B ]]; then
			seed=$((100 + i))
		fi
		for w in "${order[@]}"; do
			echo "pass $i set $set: $w seed $seed" >&2
			bash "$bench/tgbench.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
				-json "$out/$set.jsonl" >"$out/$set-$w-$seed.log"
		done
	done
done

"$root/.bench_build/go/tgbench" -compare -spec "$root/BENCHMARK.json" "$out/A.jsonl" "$out/B.jsonl"
