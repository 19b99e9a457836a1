#!/usr/bin/env bash
# pairs.sh — the CPU cost of a change, measured in alternating pairs.
#
#   scripts/pairs.sh BENCH PKG BASE HEAD N [BENCHTIME]
#   make pairs BENCH=BenchmarkDBSCAN PKG=./internal/explore/ BASE=HEAD HEAD=. N=12
#
# Builds PKG's test binary at two revisions — BASE and HEAD, any git
# revision, or "." for the working tree as it stands — each from a
# temporary export of its tree (git archive, or git ls-files for "."), so
# neither build sees the other's files and the repository's own metadata is
# never written. Then it runs the two binaries in N pairs, the side that
# runs first alternating from pair to pair, with -test.bench '^BENCH$'
# -test.benchtime BENCHTIME (default 40x) and no tests, and prints the
# user+sys CPU seconds of every run, each pair's head ÷ base ratio, the
# median ratio and how many pairs fell below 1. A run that fails, or that
# reports no result for BENCH, stops the script with its output.
# User+sys CPU of the whole process is what a shared machine measures
# least noisily; it includes the benchmark's setup, which both sides pay.
set -euo pipefail

if [ $# -lt 5 ]; then
	echo "usage: $0 BENCH PKG BASE HEAD N [BENCHTIME]" >&2
	exit 2
fi
bench=$1 pkg=$2 base=$3 head=$4 n=$5 benchtime=${6:-40x}
case $n in '' | *[!0-9]*) echo "pairs: N must be a positive integer, got '$n'" >&2; exit 2 ;; esac
[ "$n" -ge 1 ] || { echo "pairs: N must be at least 1" >&2; exit 2; }

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# build REV NAME: export REV's tree (the working tree for ".") and build
# PKG's test binary from it as $tmp/NAME.test.
build() {
	local rev=$1 name=$2 src="$tmp/$2-src"
	mkdir -p "$src"
	if [ "$rev" = "." ]; then
		# Tracked and untracked files, less those deleted in the tree.
		(cd "$root" && git ls-files -z --cached --others --exclude-standard |
			while IFS= read -r -d '' f; do if [ -e "$f" ]; then printf '%s\0' "$f"; fi; done |
			tar --null -T - -cf -) | tar -xf - -C "$src"
	else
		git -C "$root" archive "$rev" | tar -xf - -C "$src"
	fi
	(cd "$src" && go test -c -o "$tmp/$name.test" "$pkg")
}
build "$base" base
build "$head" head

# cpu NAME: run one benchmark binary and print its user+sys CPU seconds.
# A run that exits non-zero, or that reports no result line for BENCH, is
# not a sample: cpu prints the run's output and fails.
cpu() {
	local TIMEFORMAT='%3U %3S'
	if ! { time "$tmp/$1.test" -test.run '^$' -test.bench "^${bench}\$" \
		-test.benchtime "$benchtime" >"$tmp/$1.out" 2>&1; } 2>"$tmp/$1.time" ||
		! grep -q "^${bench}[-/ 	]" "$tmp/$1.out"; then
		echo "pairs: the $1 run failed or reported no $bench result:" >&2
		cat "$tmp/$1.out" >&2
		return 1
	fi
	awk '{ printf "%.3f", $1 + $2 }' "$tmp/$1.time"
}

echo "# $bench in $pkg, -benchtime $benchtime: base $base, head $head, $n pairs"
printf '%-5s %9s %9s %7s\n' pair base_s head_s ratio
ratios=()
for i in $(seq 1 "$n"); do
	if [ $((i % 2)) -eq 1 ]; then # the side that runs first alternates
		b=$(cpu base) || exit 1
		h=$(cpu head) || exit 1
	else
		h=$(cpu head) || exit 1
		b=$(cpu base) || exit 1
	fi
	r=$(awk -v b="$b" -v h="$h" 'BEGIN { printf "%.4f", h / b }')
	ratios+=("$r")
	printf '%-5d %9s %9s %7s\n' "$i" "$b" "$h" "$r"
done
printf '%s\n' "${ratios[@]}" | sort -g | awk '
	{ r[NR] = $1; if ($1 < 1) below++ }
	END {
		med = (NR % 2) ? r[(NR + 1) / 2] : (r[NR / 2] + r[NR / 2 + 1]) / 2
		printf "median %.4f, %d of %d pairs below 1, min %.4f, max %.4f\n", med, below, NR, r[1], r[NR]
	}'
