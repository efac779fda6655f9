#!/usr/bin/env bash
# digest-diff: compare two `gpssn-bench -exp digest` outputs.
#
#   scripts/digest-diff.sh A B        # A: parent run, B: change run
#   scripts/digest-diff.sh -v A B     # also list every counter change
#
# A digest line is `dataset shape u=<issuer> <answer> | <counters>`, or
# `dataset shape u=<issuer> CUT` for an issuer cut at the query deadline.
# Answers are compared on the issuers both runs completed; each mismatch
# is printed and makes the exit status 1. Counter changes (pairs, mevals,
# cand, pages, same) are listed separately, as one summary line per
# counter that moved, and do not fail the diff. Issuers cut in one run
# only, and lines present in one file only, are reported too. Two runs
# that agree on everything print nothing.
set -euo pipefail

verbose=0
if [[ "${1:-}" == "-v" ]]; then
	verbose=1
	shift
fi
if [[ $# -ne 2 ]]; then
	echo "usage: $0 [-v] A B" >&2
	exit 2
fi

awk -v verbose="$verbose" '
function key(   ) { return $1 " " $2 " " $3 }
function body(line,   i) {
	i = index(line, " ")
	i += index(substr(line, i + 1), " ")
	i += index(substr(line, i + 1), " ")
	return substr(line, i + 1)
}
/^#/ || NF == 0 { next }
FNR == NR { a[key()] = body($0); order[++n] = key(); next }
{ b[key()] = body($0); if (!(key() in a)) onlyB[++nb] = key() }
END {
	bad = 0
	for (i = 1; i <= n; i++) {
		k = order[i]
		if (!(k in b)) { onlyA++; continue }
		x = a[k]; y = b[k]
		if (x == "CUT" || y == "CUT") {
			if (x != y) { if (x == "CUT") cutA++; else cutB++ }
			continue
		}
		split(x, xp, " [|] "); split(y, yp, " [|] ")
		if (xp[1] != yp[1]) {
			printf "answer %s\n  A: %s\n  B: %s\n", k, xp[1], yp[1]
			bad = 1
		}
		nx = split(xp[2], xc, " "); ny = split(yp[2], yc, " ")
		delete cx; delete cy
		for (j = 1; j <= nx; j++) { split(xc[j], kv, "="); cx[kv[1]] = kv[2]; names[kv[1]] = 1 }
		for (j = 1; j <= ny; j++) { split(yc[j], kv, "="); cy[kv[1]] = kv[2]; names[kv[1]] = 1 }
		for (c in names) {
			if (!(c in cx) || !(c in cy)) { missing[c]++; continue }
			sa[c] += cx[c]; sb[c] += cy[c]
			if (cx[c] + 0 == cy[c] + 0) continue
			if (cy[c] + 0 > cx[c] + 0) up[c]++; else down[c]++
			if (verbose) printf "counter %s %s: %s -> %s\n", k, c, cx[c], cy[c]
		}
	}
	for (c in names) {
		if (up[c] + down[c] + missing[c] == 0) continue
		printf "counters %s: sum %d -> %d, up on %d issuers, down on %d", c, sa[c], sb[c], up[c], down[c]
		if (missing[c]) printf ", missing on one side for %d", missing[c]
		printf "\n"
	}
	if (cutA) printf "cut in A only: %d issuers\n", cutA
	if (cutB) printf "cut in B only: %d issuers\n", cutB
	if (onlyA) printf "lines in A only: %d\n", onlyA
	if (nb) printf "lines in B only: %d\n", nb
	exit bad
}
' "$1" "$2"
