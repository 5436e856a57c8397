#!/bin/sh
# unlinked.sh — lists the functions and methods declared in the non-test
# files under internal/ that no shipped binary links: it builds every
# cmd/* binary and ./benchmark with inlining off (-gcflags=all=-l, so a
# function the linker keeps is a symbol of its own), reads their symbols
# with go tool nm, and prints each declared function found in none of
# them, with its file, line and length, then the count and the lines.
# What it lists is reached only from tests, or from nothing. Generic
# instances are matched by their name without type arguments. It gates
# nothing and exits 0.
set -eu
cd "$(git rev-parse --show-toplevel)"
mod=$(go list -m)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -gcflags=all=-l -o "$tmp/" ./cmd/... ./benchmark
for bin in "$tmp"/*; do
	go tool nm "$bin"
done | awk -v pre="$mod/internal/" '
$3 != "" && index($3, pre) == 1 {
	s = $3
	# Drop type arguments, innermost brackets first.
	while (s ~ /\[[^][]*\]/) gsub(/\[[^][]*\]/, "", s)
	print s
}' | sort -u >"$tmp/linked"
find internal -name '*.go' ! -name '*_test.go' | sort | xargs awk -v mod="$mod" '
# sym names the declaration on a "func" line as go tool nm does:
# pkg.Name, pkg.Type.Name or pkg.(*Type).Name.
function sym(line, dir,   r, recv, n, a, typ, name) {
	if (line ~ /^func \(/) {
		r = substr(line, 7)
		recv = r; sub(/\).*/, "", recv)
		n = split(recv, a, " "); typ = a[n]; sub(/\[.*/, "", typ)
		name = r; sub(/^[^)]*\) */, "", name)
		sub(/[(\[].*/, "", name)
		if (typ ~ /^\*/) return mod "/" dir ".(" typ ")." name
		return mod "/" dir "." typ "." name
	}
	name = substr(line, 6); sub(/[(\[].*/, "", name)
	if (name == "init") return ""
	return mod "/" dir "." name
}
FNR == 1 { dir = FILENAME; sub(/\/[^\/]*$/, "", dir); open = "" }
open != "" && /^}/ { print open, FNR - start + 1; open = "" }
/^func / {
	s = sym($0, dir)
	if (s == "") next
	start = FNR
	if ($0 ~ /}$/) print s, FILENAME ":" FNR, 1
	else open = s " " FILENAME ":" FNR
}' >"$tmp/declared"
awk 'NR == FNR { linked[$1] = 1; next }
!($1 in linked) { n++; lines += $3; printf "%-64s %s (%d lines)\n", $1, $2, $3 }
END { printf "%d functions, %d lines unlinked\n", n, lines }' "$tmp/linked" "$tmp/declared"
