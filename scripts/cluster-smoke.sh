#!/bin/sh
# cluster-smoke: the four node binaries as README's localhost cluster —
# application server, coordinator (lazy-disk, placement 3:1), two
# engines, and a generator feeding five virtual minutes at scale 300,
# about one second of wall time. Passes when the generator exits 0 (it
# quiesced, fenced and cleaned up), the coordinator completed at least one
# relocation, and the application server's final count equals the sum of
# the results the engines logged: the fence left nothing in flight.
#
#   scripts/cluster-smoke.sh
#   make cluster-smoke
#   CLUSTER_SMOKE_PORT=27000 make cluster-smoke    (base of the five ports)
#
# Binaries and logs live in a temporary directory; the logs are printed
# when the run fails.
set -eu
cd "$(git rev-parse --show-toplevel)"
base=${CLUSTER_SMOKE_PORT:-17000}
gc=127.0.0.1:$base app=127.0.0.1:$((base + 1)) gen=127.0.0.1:$((base + 2))
m1=127.0.0.1:$((base + 101)) m2=127.0.0.1:$((base + 102))
tmp=$(mktemp -d)
pids=
trap 'kill $pids 2>/dev/null || true; rm -rf "$tmp"' EXIT INT TERM

go build -o "$tmp/" ./cmd/appserver ./cmd/coordinator ./cmd/engine ./cmd/generator

fail() {
	echo "cluster-smoke: $*" >&2
	for f in "$tmp"/*.log; do echo "--- $f" >&2; cat "$f" >&2; done
	exit 1
}
# start NAME COMMAND...: run a node in the background, log to NAME.log.
start() {
	name=$1
	shift
	"$@" >"$tmp/$name.log" 2>&1 &
	pids="$pids $!"
}
# await NAME: wait until the node says it listens.
await() {
	i=0
	until grep -q 'listening on' "$tmp/$1.log"; do
		i=$((i + 1))
		[ "$i" -le 100 ] || fail "$1 did not come up"
		sleep 0.1
	done
}
# logged NAME SED-EXPR: the number SED-EXPR extracts from NAME's log.
logged() {
	sed -n "$2" "$tmp/$1.log" | tail -n 1
}

start appserver "$tmp/appserver" -listen "$app"
start coordinator "$tmp/coordinator" -listen "$gc" -gen "$gen" -engines "m1=$m1,m2=$m2" \
	-strategy lazy -weights 3,1 -scale 300
start m1 "$tmp/engine" -node m1 -listen "$m1" -gc "$gc" -app "$app" -gen "$gen" \
	-peers "m2=$m2" -spill-threshold 2000000 -scale 300
start m2 "$tmp/engine" -node m2 -listen "$m2" -gc "$gc" -app "$app" -gen "$gen" \
	-peers "m1=$m1" -spill-threshold 2000000 -scale 300
for node in appserver coordinator m1 m2; do await "$node"; done

"$tmp/generator" -listen "$gen" -gc "$gc" -app "$app" -engines "m1=$m1,m2=$m2" \
	-weights 3,1 -duration 5m -scale 300 >"$tmp/generator.log" 2>&1 ||
	fail "generator exited $?"

# The nodes print their totals when told to stop.
kill $pids
wait $pids 2>/dev/null || true
pids=
relocations=$(logged coordinator 's/.*coordinator: \([0-9]*\) relocations.*/\1/p')
r1=$(logged m1 's/.*engine m1: \([0-9]*\) results.*/\1/p')
r2=$(logged m2 's/.*engine m2: \([0-9]*\) results.*/\1/p')
counted=$(logged appserver 's/.*final result count: \([0-9]*\).*/\1/p')
[ -n "$relocations" ] && [ -n "$r1" ] && [ -n "$r2" ] && [ -n "$counted" ] ||
	fail "a node did not log its totals"
[ "$relocations" -ge 1 ] || fail "no relocation completed"
[ "$counted" -gt 0 ] || fail "no results"
[ "$counted" -eq $((r1 + r2)) ] ||
	fail "application server counted $counted results, engines produced $r1 + $r2"
echo "cluster-smoke: ok — $relocations relocations, $counted results ($r1 + $r2), generator: $(tail -n 1 "$tmp/generator.log")"
