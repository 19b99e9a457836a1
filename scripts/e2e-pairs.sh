#!/usr/bin/env bash
# e2e-pairs.sh — a change's end-to-end cost on one benchmark workload,
# measured in alternating pairs.
#
#   scripts/e2e-pairs.sh W BASE HEAD N
#   make e2e-pairs W=dbscan_xtree BASE=HEAD HEAD=. N=10
#
# Builds the benchmark (bench/) at two revisions — BASE and HEAD, any git
# revision, or "." for the working tree — each from a temporary export of
# its tree and with bench/run.sh's build line. Then it runs the two
# binaries in N pairs on -workload W -seed 1 -trace 0 for the benchmark's
# own run length (BENCHMARK.json's run_seconds), the side that runs first
# alternating from pair to pair, and prints every end-to-end metric's
# change (head − base) ÷ base in each pair, its median, how many pairs
# it went down and up, each side's median and the base's interquartile
# range (the distance between the medians of its lower and upper halves;
# 0 for one pair), the spread a change's medians must differ by. Unlike
# `make pairs`, which times a Go benchmark's CPU, this sees what the
# benchmark judges: peak_rss_mb, setup_s, the latencies and the rest. A run
# that exits non-zero or reports "correct":false stops the script with its
# output. The runs work in the temporary directory; nothing is written
# under bench/.
set -euo pipefail

if [ $# -lt 4 ]; then
	echo "usage: $0 W BASE HEAD N" >&2
	exit 2
fi
workload=$1 base=$2 head=$3 n=$4
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$(dirname "$0")/../BENCHMARK.json")
[ -n "$seconds" ] || { echo "e2e-pairs: no run_seconds in BENCHMARK.json" >&2; exit 2; }
case $n in '' | *[!0-9]*) echo "e2e-pairs: N must be a positive integer, got '$n'" >&2; exit 2 ;; esac
[ "$n" -ge 1 ] || { echo "e2e-pairs: N must be at least 1" >&2; exit 2; }

. "$(dirname "$0")/export.sh"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# build REV NAME: export REV's tree and build its benchmark as
# $tmp/NAME.bench, the way bench/run.sh does (one Go cache for both).
build() {
	local src="$tmp/$2-src" home="$tmp/home"
	export_rev "$1" "$src"
	env HOME="$home" XDG_CONFIG_HOME="$home/.config" XDG_CACHE_HOME="$home/.cache" \
		GOPATH="$home/go" GOCACHE="$tmp/gocache" GOFLAGS= GOTOOLCHAIN=local GOWORK=off \
		go build -C "$src/bench" -o "$tmp/$2.bench" .
}
build "$base" base
build "$head" head

# run NAME I: run one benchmark binary and keep its result line as
# $tmp/NAME.I. A run that fails or answers wrongly is not a sample.
run() {
	if ! (cd "$tmp" && "./$1.bench" -workload "$workload" -seed 1 -seconds "$seconds" \
		-trace 0 -out "$tmp/out" >"$tmp/$1.out" 2>"$tmp/$1.err") ||
		! tail -n 1 "$tmp/$1.out" | grep -q '^{"correct":true,'; then
		echo "e2e-pairs: the $1 run failed or answered wrongly:" >&2
		cat "$tmp/$1.out" "$tmp/$1.err" >&2
		return 1
	fi
	tail -n 1 "$tmp/$1.out" | grep -o '"[a-z0-9_]*":{"value":[-0-9.eE+]*' |
		sed 's/^"\([^"]*\)":{"value":/\1 /' >"$tmp/$1.$2"
}

echo "# $workload, $seconds s a run, seed 1: base $base, head $head, $n pairs; (head - base) / base"
for i in $(seq 1 "$n"); do
	if [ $((i % 2)) -eq 1 ]; then # the side that runs first alternates
		run base "$i" && run head "$i" || exit 1
	else
		run head "$i" && run base "$i" || exit 1
	fi
done
for i in $(seq 1 "$n"); do
	join <(sort "$tmp/base.$i") <(sort "$tmp/head.$i") | sed "s/^/$i /"
done | awk -v n="$n" '
	# sort a[1..n] into s by insertion
	function sorted(a, s, i, j) {
		for (i = 1; i <= n; i++) {
			for (j = i - 1; j >= 1 && s[j] > a[i]; j--) s[j + 1] = s[j]
			s[j + 1] = a[i]
		}
	}
	# median of s[lo..hi], sorted
	function mid(s, lo, hi, k) {
		k = hi - lo + 1
		return (k % 2) ? s[lo + (k - 1) / 2] : (s[lo + k / 2 - 1] + s[lo + k / 2]) / 2
	}
	function median(a, s) { sorted(a, s); return mid(s, 1, n) }
	# the medians of the lower and the upper half of a[1..n] apart
	function iqr(a, s, h) {
		if (n < 2) return 0
		sorted(a, s); h = int(n / 2)
		return mid(s, n - h + 1, n) - mid(s, 1, h)
	}
	{ m = $2; if (!(m in seen)) { seen[m] = 1; names[++k] = m }
	  base[m, $1] = $3; head[m, $1] = $4
	  d = ($3 == 0) ? 0 : ($4 - $3) / $3; ch[m, $1] = d
	  if (d < 0) down[m]++; else if (d > 0) up[m]++ }
	END {
		printf "%-20s", "metric"
		for (i = 1; i <= n; i++) printf " %8s", "pair" i
		printf " %8s %5s %5s %11s %11s %11s\n", "median", "down", "up", "base_med", "head_med", "base_iqr"
		for (j = 1; j <= k; j++) {
			m = names[j]; printf "%-20s", m
			for (i = 1; i <= n; i++) { printf " %+8.4f", ch[m, i]; c[i] = ch[m, i]; b[i] = base[m, i]; h[i] = head[m, i] }
			printf " %+8.4f %5d %5d %11.5g %11.5g %11.5g\n", median(c), down[m], up[m], median(b), median(h), iqr(b)
		}
	}'
