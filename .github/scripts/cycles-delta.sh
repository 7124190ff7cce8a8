#!/usr/bin/env bash
# Compares two copies of internal/bench/testdata/cycles.golden, the
# per-program cycle ledger.  It prints every line whose cycles=,
# memreads= or streamed= value changed, with each delta, and lines only
# one side has.  It exits 1 if any cycles= value rose or a line of the
# old ledger is gone (deleting a line would hide its regression);
# memreads= and streamed= moves are reported, never failed.  A last
# line gives the suite O3 total, old -> new: cycles= summed over the
# */O3/default lines, the figure the benchmark reports as sim_cycles.
#
#   bash .github/scripts/cycles-delta.sh old-cycles.golden new-cycles.golden
set -euo pipefail
awk '
function field(line, name,   f, k, n) {
	n = split(line, f, " ")
	for (k = 1; k <= n; k++) if (index(f[k], name "=") == 1) return substr(f[k], length(name) + 2) + 0
	return -1
}
function delta(name, a, b) {
	if (a == b) return sprintf("%s=%d", name, b)
	return sprintf("%s %d -> %d (%+d)", name, a, b, b - a)
}
NR == FNR {
	old[$1] = field($0, "cycles"); oldm[$1] = field($0, "memreads"); olds[$1] = field($0, "streamed")
	if ($1 ~ /\/O3\/default$/) oldO3 += old[$1]
	next
}
{
	seen[$1] = 1
	now = field($0, "cycles"); m = field($0, "memreads"); s = field($0, "streamed")
	if ($1 ~ /\/O3\/default$/) newO3 += now
	if (!($1 in old)) { printf "new     %-28s cycles=%d memreads=%d streamed=%d\n", $1, now, m, s; next }
	if (now == old[$1] && m == oldm[$1] && s == olds[$1]) next
	d = now - old[$1]
	tag = d > 0 ? "ROSE" : d < 0 ? "fell" : "same"
	pct = old[$1] ? 100 * d / old[$1] : 0
	printf "%-7s %-28s %d -> %d (%+d, %+.1f%%)  %s  %s\n", tag, $1, old[$1], now, d, pct,
		delta("memreads", oldm[$1], m), delta("streamed", olds[$1], s)
	if (d > 0) rose++
}
END {
	for (k in old) if (!(k in seen)) { printf "GONE    %s\n", k; gone++ }
	printf "suite O3 total %d -> %d (%+d, %+.1f%%)\n", oldO3, newO3, newO3 - oldO3, oldO3 ? 100 * (newO3 - oldO3) / oldO3 : 0
	if (rose) printf "%d cycles.golden line(s) rose\n", rose
	if (gone) printf "%d cycles.golden line(s) gone\n", gone
	if (rose || gone) exit 1
}' "$1" "$2"
