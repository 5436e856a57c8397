#!/bin/sh
# event_moves.sh [REV] — compares internal/engine/testdata/device_events.golden
# in the working tree with the same file at git revision REV (default
# HEAD), section by section ("degree D nofusion B [faults]"). For each
# section with a moved row it prints how many rows moved and the first of
# them, then every moved row, REV's line above the working tree's: the
# statement rows ("cold|warm <id> <events> <digest>") and the counter
# rows (hostmem, fusion, injected, retry and fallback per op). A row only
# one side has is shown against "(none)". It gates nothing and exits 0.
set -eu
rev=${1:-HEAD}
golden=internal/engine/testdata/device_events.golden
cd "$(git rev-parse --show-toplevel)"
git show "$rev:$golden" | awk '
# key names a row within its section: the lap and statement of a
# statement row, the counter (and op) of a counter row; "" for a header.
function key(line, f) {
	split(line, f, " ")
	if (f[1] == "degree") return ""
	if (f[1] == "cold" || f[1] == "warm" || f[1] == "retry" || f[1] == "fallback") return f[1] " " f[2]
	return f[1]
}
function row(sec, name, was, now) {
	if (!(sec in moved)) { order[++nsec] = sec; first[sec] = name }
	moved[sec]++
	out[sec] = out[sec] "  " was "\n  -> " now "\n"
	total++
}
FNR == 1 { sec = "" }
/^degree / { sec = $0; next }
NR == FNR { old[sec SUBSEP key($0)] = $0; next }
{
	k = sec SUBSEP key($0)
	seen[k] = 1
	if (!(k in old)) row(sec, key($0), "(none)", $0)
	else if (old[k] != $0) row(sec, key($0), old[k], $0)
}
END {
	for (k in old) if (!(k in seen)) { split(k, p, SUBSEP); row(p[1], p[2], old[k], "(none)") }
	for (i = 1; i <= nsec; i++) {
		s = order[i]
		printf "%s: %d moved, first %s\n%s", s, moved[s], first[s], out[s]
	}
	printf "%d rows moved in %d sections\n", total, nsec
}' - "$golden"
