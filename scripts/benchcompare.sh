#!/bin/sh
# Compares the benchmark (softlorabench, declared by BENCHMARK.json) between
# a base revision and the working tree:
#
#   sh scripts/benchcompare.sh <base-rev>
#
# The base is extracted with git archive into .bench_build/compare (removed
# on exit), and each tree builds softlorabench from its own sources. Every
# workload runs 10 base/change pairs, untraced, at one run length: pairs 1-5
# at seed 7, pairs 6-10 at seed 311, each pair in the other order from the
# one before, so host drift falls on both sides alike. Workloads, end-to-end
# metrics, their direction and bounds come from the base's BENCHMARK.json,
# so a change cannot loosen its own gate.
#
# For every workload and metric it prints both medians, the median of the
# per-pair change/base ratios, the base runs' interquartile range over their
# median and a verdict: REGRESSED when the median ratio is worse than the
# bound and either the base spread is within the bound or every change run
# is worse than every base run; unresolved when the base spread alone
# exceeds the bound and not every change run is better than every base
# run; ok otherwise. It also prints, per workload and seed, whether the
# output digests match and the failed operation counts.
#
# It exits 1 on a REGRESSED metric, on an invalid run (a non-zero exit,
# "correct": false, or a last line that is not the result), and on a larger
# failed share than the base's at the same seed.
set -eu
if [ $# -ne 1 ]; then
	echo "usage: sh scripts/benchcompare.sh <base-rev>" >&2
	exit 2
fi
cd "$(git rev-parse --show-toplevel)"
rev=$(git rev-parse --verify --quiet "$1^{commit}") || {
	echo "benchcompare: $1 is not a commit" >&2
	exit 2
}

pairs=10
seconds=7
work=$PWD/.bench_build/compare
rm -rf "$work"
trap 'rm -rf "$work"' EXIT
trap 'exit 1' HUP INT TERM
mkdir -p "$work/base" "$work/runs"
git archive "$rev" | tar -x -C "$work/base"

# One "workload <name>" line per workload, one "metric <name> <better>
# <bound>" line per end-to-end metric.
awk '
/"workloads": *\[/ { sect = "workload"; next }
/"end_to_end": *\[/ { sect = "metric"; next }
/"[a-z_]+": *\[/ { sect = ""; next }
sect == "" { next }
match($0, /"(name|better)": *"[^"]*"/) {
	v = substr($0, RSTART, RLENGTH)
	sub(/^"[a-z]+": *"/, "", v)
	sub(/"$/, "", v)
	if ($0 ~ /"name"/) name = v; else better = v
}
match($0, /"bound": *[0-9.eE+-]+/) {
	bound = substr($0, RSTART, RLENGTH)
	sub(/^"bound": */, "", bound)
}
/}/ {
	if (sect == "workload" && name != "") print "workload", name
	if (sect == "metric" && name != "") print "metric", name, better, bound
	name = better = bound = ""
}' "$work/base/BENCHMARK.json" > "$work/spec"
workloads=$(awk '$1 == "workload" { print $2 }' "$work/spec")
if [ -z "$workloads" ] || ! grep -Eq '^metric [^ ]+ (lower|higher) [0-9]' "$work/spec"; then
	echo "benchcompare: no workloads or end-to-end metrics in the base's BENCHMARK.json" >&2
	exit 2
fi

# run <side> <workload> <seed> <pair> runs one side's softlorabench and
# stops the compare when the run is invalid.
run() {
	tree=$PWD
	[ "$1" = base ] && tree=$work/base
	out=$work/runs/$2.$3.$4.$1
	if ! (cd "$tree" && sh softlorabench/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --trace 0) \
		> "$out" 2> "$work/stderr" || ! tail -n 1 "$out" | grep -q '^{"correct":true,'; then
		echo "benchcompare: invalid $1 run: $2 seed $3 (pair $4)" >&2
		tail -n 5 "$out" "$work/stderr" >&2
		exit 1
	fi
}

start=$(date +%s)
echo "benchcompare: base $(git rev-parse --short "$rev") against the working tree," \
	"$pairs pairs per workload at seeds 7 and 311, --seconds $seconds"
for w in $workloads; do
	i=1
	while [ $i -le $pairs ]; do
		seed=7
		[ $i -gt $((pairs / 2)) ] && seed=311
		if [ $((i % 2)) -eq 1 ]; then
			run base "$w" $seed $i
			run change "$w" $seed $i
		else
			run change "$w" $seed $i
			run base "$w" $seed $i
		fi
		i=$((i + 1))
	done
	echo "  $w: $pairs pairs done at $(($(date +%s) - start)) s"
done

awk -v spec="$work/spec" '
function sort(a, n,   i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j - 1] > a[j]; j--) {
			t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
		}
}
# quantile of the sorted a[1..n], linearly interpolated.
function quantile(a, n, p,   x, i) {
	x = 1 + (n - 1) * p
	i = int(x)
	return i >= n ? a[n] : a[i] + (x - i) * (a[i + 1] - a[i])
}
BEGIN {
	while ((getline line < spec) > 0) {
		split(line, f, " ")
		if (f[1] == "workload") wl[++nw] = f[2]
		else { ml[++nm] = f[2]; better[f[2]] = f[3]; bound[f[2]] = f[4] }
	}
}
FNR == 1 {
	n = split(FILENAME, path, "/")
	split(path[n], key, ".")
	w = key[1]; seed = key[2]; pair = key[3] + 0; side = key[4]
	if (pair > np) np = pair
	seedOf[pair] = seed
}
/^  output digest / {
	if (!((w, seed, side) in dig)) dig[w, seed, side] = $3
	else if (dig[w, seed, side] != $3) mixed[w, seed] = 1
}
/^\{"correct":/ {
	match($0, /"attempted":[0-9]+/); att = substr($0, RSTART + 12, RLENGTH - 12) + 0
	match($0, /"failed":[0-9]+/); fl = substr($0, RSTART + 9, RLENGTH - 9) + 0
	if (!((w, seed, side) in share) || fl / att > share[w, seed, side]) {
		share[w, seed, side] = fl / att
		count[w, seed, side] = fl "/" att
	}
	for (k = 1; k <= nm; k++) {
		m = ml[k]
		if (match($0, "\"" m "\":\\{\"value\":[-0-9.eE+]+")) {
			s = substr($0, RSTART, RLENGTH)
			sub(/.*"value":/, "", s)
			v[w, m, side, pair] = s + 0
		}
	}
}
END {
	printf "\n%-15s %-14s %12s %12s %9s %9s %7s  %s\n", "workload", "metric",
		"base median", "change", "ratio", "base IQR", "bound", "verdict"
	for (i = 1; i <= nw; i++) for (k = 1; k <= nm; k++) {
		w = wl[i]; m = ml[k]; lower = better[m] == "lower"
		for (p = 1; p <= np; p++) {
			b[p] = v[w, m, "base", p]; c[p] = v[w, m, "change", p]
			r[p] = c[p] / b[p]
		}
		sort(b, np); sort(c, np); sort(r, np)
		bmed = quantile(b, np, 0.5)
		iqr = (quantile(b, np, 0.75) - quantile(b, np, 0.25)) / bmed
		ratio = quantile(r, np, 0.5)
		worse = lower ? ratio > 1 + bound[m] : ratio < 1 - bound[m]
		allWorse = lower ? c[1] > b[np] : c[np] < b[1]
		allBetter = lower ? c[np] < b[1] : c[1] > b[np]
		if (worse && (iqr <= bound[m] || allWorse)) {
			verdict = "REGRESSED"
			regressed = regressed " " w ":" m
		} else if (iqr <= bound[m] || allBetter) verdict = "ok"
		else verdict = "unresolved"
		printf "%-15s %-14s %12.6g %12.6g %9.4f %8.2f%% %7g  %s\n", w, m, bmed,
			quantile(c, np, 0.5), ratio, 100 * iqr, bound[m], verdict
	}
	printf "\n%-15s %-5s %-8s %-16s %s\n", "workload", "seed", "digests", "base", "failed base -> change"
	for (i = 1; i <= nw; i++) for (s = 1; s <= np; s++) {
		w = wl[i]; seed = seedOf[s]
		if ((w, seed) in done) continue
		done[w, seed] = 1
		d = dig[w, seed, "base"]
		same = d != "" && d == dig[w, seed, "change"] && !((w, seed) in mixed)
		printf "%-15s %-5s %-8s %-16s %s -> %s", w, seed, same ? "match" : "DIFFER",
			substr(d, 1, 16), count[w, seed, "base"], count[w, seed, "change"]
		if (!same) printf "  (change %s)", substr(dig[w, seed, "change"], 1, 16)
		if (share[w, seed, "change"] > share[w, seed, "base"]) {
			printf "  MORE FAILED"
			failed = failed " " w ":" seed
		}
		printf "\n"
	}
	if (regressed != "") print "\nREGRESSED:" regressed
	if (failed != "") print "\nmore operations failed than at the base:" failed
	exit regressed != "" || failed != ""
}' "$work"/runs/*.* && status=0 || status=$?
echo "benchcompare: $((pairs * 2)) runs per workload in $(($(date +%s) - start)) s, exit $status"
exit $status
