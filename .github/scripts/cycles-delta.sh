#!/usr/bin/env bash
# Compares two copies of internal/bench/testdata/cycles.golden, the
# per-program cycle ledger.  It prints every line whose cycles= value
# changed, with the delta, and lines only one side has, and exits 1 if
# any cycles= value rose.
#
#   bash .github/scripts/cycles-delta.sh old-cycles.golden new-cycles.golden
set -euo pipefail
awk '
function cycles(line,   f, k) {
	split(line, f, " ")
	for (k in f) if (f[k] ~ /^cycles=/) return substr(f[k], 8) + 0
	return -1
}
NR == FNR { old[$1] = cycles($0); next }
{
	seen[$1] = 1
	now = cycles($0)
	if (!($1 in old)) { printf "new     %-28s cycles=%d\n", $1, now; next }
	if (now == old[$1]) next
	d = now - old[$1]
	printf "%-7s %-28s %d -> %d (%+d, %+.1f%%)\n", (d > 0 ? "ROSE" : "fell"), $1, old[$1], now, d, 100 * d / old[$1]
	if (d > 0) rose++
}
END {
	for (k in old) if (!(k in seen)) printf "gone    %s\n", k
	if (rose) { printf "%d cycles.golden line(s) rose\n", rose; exit 1 }
}' "$1" "$2"
