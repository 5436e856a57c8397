#!/bin/sh
# modeled_rises.sh [REV] — compares internal/bench/testdata/modeled.golden
# in the working tree with the same file at git revision REV (default
# HEAD), statement by statement. It prints every statement whose GPU-on
# or GPU-off modeled time moved, with both times and the delta in ms, and
# exits 1 when one rose on either arm. Times are compared by their IEEE
# bits: for positive doubles, fixed-width hex orders like the numbers.
set -eu
rev=${1:-HEAD}
golden=internal/bench/testdata/modeled.golden
cd "$(git rev-parse --show-toplevel)"
git show "$rev:$golden" | awk '
function rows(line, key) {
	# "  <id> on <bits> <ms>ms off <bits> <ms>ms ..." under "experiment <name>"
	n = split(line, f, " ")
	if (f[1] == "experiment") { ex = f[2]; return "" }
	if (n < 6 || f[2] != "on" || f[5] != "off") return ""
	return ex " " f[1]
}
FNR == 1 { ex = "" }
NR == FNR { k = rows($0); if (k != "") { on[k] = $3; onms[k] = $4; off[k] = $6; offms[k] = $7 } next }
{
	k = rows($0)
	if (k == "" || !(k in on)) next
	if ($3 == on[k] && $6 == off[k]) next
	moved++
	d_on = $4 - onms[k]; d_off = $7 - offms[k]
	printf "%-30s on %s -> %s (%+.6f)  off %s -> %s (%+.6f)\n", k, onms[k], $4, d_on, offms[k], $7, d_off
	if ($3 > on[k] || $6 > off[k]) { rose++; print "  ^ rose" }
}
END {
	printf "%d rows moved, %d rose\n", moved, rose
	exit rose > 0
}' - "$golden"
