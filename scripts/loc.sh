#!/bin/sh
# loc: the line count every simplification PR quotes — non-test Go
# outside benchmark/ and testdata/, the code a reader has to hold in
# their head — for the working tree, for internal/core, for
# internal/coordinator, for the decision layer (the two together), for
# internal/engine, for the lint suite (internal/analysis + cmd/distqlint) and for the wiring (the
# facade, the composition root and the four node binaries) and, given
# BASE, the same at that revision and the delta against it. internal/core
# beside internal/coordinator is the decision layer: core decides who moves
# what, the coordinator carries it out.
#
#   scripts/loc.sh [BASE]
#   make loc BASE=d3d9c36
#
# The working tree is what git knows of it (tracked, or untracked and not
# ignored); nothing is written.
set -eu
cd "$(git rev-parse --show-toplevel)"
# counted PREFIXES: of the paths on stdin, the counted ones under one of
# PREFIXES (a|b).
counted() {
	grep '\.go$' | grep -v -e '_test\.go$' -e '^benchmark/' -e '/testdata/' | grep -E "^($1)" || true
}
decision='internal/core/|internal/coordinator/'
lint='internal/analysis/|cmd/distqlint/'
wiring='distq/|internal/cluster/|cmd/(engine|coordinator|generator|appserver)/'
# here PREFIXES / at REV PREFIXES: counted lines in the working tree / in REV.
here() {
	git ls-files --cached --others --exclude-standard | counted "$1" |
		while read -r f; do [ ! -f "$f" ] || cat "$f"; done | wc -l | tr -d ' '
}
at() {
	git ls-tree -r --name-only "$1" | counted "$2" |
		while read -r f; do git show "$1:$f"; done | wc -l | tr -d ' '
}
now=$(here '')
echo "non-test Go lines (excluding benchmark/, testdata/): $now"
echo "  internal/core: $(here internal/core/)"
echo "  internal/coordinator: $(here internal/coordinator/)"
echo "  decision layer (internal/core + internal/coordinator): $(here "$decision")"
echo "  internal/engine: $(here internal/engine/)"
echo "  internal/analysis + cmd/distqlint: $(here "$lint")"
echo "  wiring (distq + internal/cluster + the four node binaries): $(here "$wiring")"
[ $# -ge 1 ] && [ -n "$1" ] || exit 0
was=$(at "$1" '')
echo "at $1: $was"
echo "  internal/core: $(at "$1" internal/core/)"
echo "  internal/coordinator: $(at "$1" internal/coordinator/)"
echo "  decision layer (internal/core + internal/coordinator): $(at "$1" "$decision")"
echo "  internal/engine: $(at "$1" internal/engine/)"
echo "  internal/analysis + cmd/distqlint: $(at "$1" "$lint")"
echo "  wiring (distq + internal/cluster + the four node binaries): $(at "$1" "$wiring")"
echo "delta: $((now - was))"
