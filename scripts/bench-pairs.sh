#!/bin/sh
# bench-pairs: N alternating base/change pairs of end-to-end benchmark
# workloads, the comparison a claimed performance gain is judged by:
# pair i runs `benchmark -workload W -seed i` on BASE (a
# `git archive` of the revision, unpacked and built once in a temporary
# directory) and on the working tree, BASE first in odd pairs and second
# in even ones. WORKLOAD may name several workloads, space-separated:
# each runs its N pairs in turn and gets its own table. Per end-to-end
# metric a table prints each side's median and quartiles, how many pairs
# the change won and how many it tied (the same value on the same seed,
# as a deterministic count should be), and whether the medians differ by
# more than the base's inter-quartile distance — the two conditions a
# claimed gain has to meet.
#
#   scripts/bench-pairs.sh BASE WORKLOAD [N [SECONDS]]
#   make bench-pairs BASE=680b2c7 WORKLOAD=flood_count N=10
#   make bench-pairs BASE=680b2c7 WORKLOAD="constrained_adapt paced_materialize" N=5 SECONDS=10
#
# Nothing is written outside the temporary directory and benchmark/out.
set -eu
[ $# -ge 2 ] && [ -n "$2" ] || { echo "usage: $0 BASE WORKLOAD [N [SECONDS]]" >&2; exit 2; }
base=$1 workloads=$2 n=${3:-10} seconds=${4:-20}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

mkdir "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/bench-base" ./benchmark)
(cd "$root" && go build -o "$tmp/bench-change" ./benchmark)

# run SIDE DIR SEED: one run of $workload; its "name value unit" lines go
# to the log.
run() {
	if ! (cd "$2" && "$tmp/bench-$1" -workload "$workload" -seed "$3" -seconds "$seconds") >"$tmp/out" 2>&1; then
		cat "$tmp/out" >&2
		echo "bench-pairs: $1 run with seed $3 failed" >&2
		exit 1
	fi
	awk -v side="$1" -v seed="$3" 'NF == 3 && $1 !~ /^[#{]/ { print side, seed, $1, $2 }' "$tmp/out" >>"$tmp/log"
}
# pairs: $workload's N pairs, then its table.
pairs() {
	: >"$tmp/log"
	i=1
	while [ "$i" -le "$n" ]; do
		if [ $((i % 2)) -eq 1 ]; then
			run base "$tmp/base" "$i"
			run change "$root" "$i"
		else
			run change "$root" "$i"
			run base "$tmp/base" "$i"
		fi
		awk -v seed="$i" '$2 == seed && $3 == "throughput_tps" { printf "%s%s %.0f", sep, $1, $4; sep = "  " } END { print "   (pair " seed ", tuples/s)" }' "$tmp/log"
		i=$((i + 1))
	done

	# Lower is better except for the two metrics BENCHMARK.json marks higher.
	sort -k3,3 -k1,1 -k4,4g "$tmp/log" | awk -v n="$n" -v workload="$workload" -v base="$base" '
	function q(a, cnt, p,    h, lo) { h = (cnt - 1) * p + 1; lo = int(h); return lo >= cnt ? a[cnt] : a[lo] + (h - lo) * (a[lo + 1] - a[lo]) }
	{ cnt[$3, $1]++; v[$3, $1, cnt[$3, $1]] = $4; byseed[$3, $1, $2] = $4; if (!($3 in seen)) { seen[$3]; order[++m] = $3 } }
	END {
		printf "%s: %d pairs, base %s vs working tree\n", workload, n, base
		printf "%-28s %-6s %14s %14s %14s   %s\n", "metric", "side", "median", "q1", "q3", "change: median, pairs won and tied, beyond base IQR"
		for (k = 1; k <= m; k++) {
			name = order[k]
			higher = (name == "throughput_tps" || name == "runtime_results_per_tuple")
			for (s = 1; s <= 2; s++) {
				side = s == 1 ? "base" : "change"
				for (j = 1; j <= cnt[name, side]; j++) a[j] = v[name, side, j]
				med[side] = q(a, cnt[name, side], 0.5); q1[side] = q(a, cnt[name, side], 0.25); q3[side] = q(a, cnt[name, side], 0.75)
			}
			won = tied = 0
			for (j = 1; j <= n; j++) {
				d = byseed[name, "change", j] - byseed[name, "base", j]
				if (d == 0) tied++
				else if (higher ? d > 0 : d < 0) won++
			}
			d = med["change"] - med["base"]
			verdict = sprintf("%+.1f%%, won %d, tied %d of %d, %s", med["base"] ? 100 * d / med["base"] : 0, won, tied, n, (d < 0 ? -d : d) > q3["base"] - q1["base"] ? "yes" : "no")
			printf "%-28s %-6s %14.4f %14.4f %14.4f\n", name, "base", med["base"], q1["base"], q3["base"]
			printf "%-28s %-6s %14.4f %14.4f %14.4f   %s\n", name, "change", med["change"], q1["change"], q3["change"], verdict
		}
	}'
}

for workload in $workloads; do
	pairs
done
