#!/usr/bin/env bash
# bench_ab.sh — gate simulator throughput by running the base and the
# head tree's root benchmarks alternately on one machine.
#
# Usage:
#   scripts/bench_ab.sh BASE_DIR HEAD_DIR
#
# Each tree's root test binary is built once. Then eight pairs run;
# in each, every benchmark runs once on each binary (1 s), back to
# back, the base first in odd pairs and the head first in even ones,
# so both see the same machine, drift falls on both sides and each
# tree runs second equally often. For every benchmark both trees
# report insts/s for, a pair's ratio is head / base; the gate fails
# when a benchmark's median ratio is below 0.85 or the geomean of the
# medians is below 0.90. A speed-up reads above 1 and passes.
# Benchmarks only one tree has are listed and skipped. The pattern,
# benchtime, pair count and bounds are constants below.
set -euo pipefail

base="$(cd "${1:?usage: bench_ab.sh BASE_DIR HEAD_DIR}" && pwd)"
head="$(cd "${2:?usage: bench_ab.sh BASE_DIR HEAD_DIR}" && pwd)"
pattern='BenchmarkEmulator$|BenchmarkPipelineBaseline$|BenchmarkPipelineOptimized$|BenchmarkPipelineExactMix$|BenchmarkPlanBuild$|BenchmarkSweep'
benchtime=1s
pairs=8 # even: each tree runs first in half the pairs
min_ratio=0.85
min_geo=0.90

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

for side in base head; do
	dir="${!side}"
	(cd "$dir" && go test -c -o "$work/$side.test" .)
done

# The benchmarks to compare: those either binary lists.
benches=$(for side in base head; do
	dir="${!side}"
	(cd "$dir" && "$work/$side.test" -test.list "$pattern")
done | grep '^Benchmark' | sort -u)

# run SIDE PAIR BENCH appends "SIDE PAIR NAME INSTS_PER_S" lines to
# $work/rates.
run() {
	local side="$1" pair="$2" bench="$3" dir
	dir="${!side}"
	(cd "$dir" && "$work/$side.test" -test.run '^$' -test.bench "^$bench\$" \
		-test.benchtime "$benchtime" -test.timeout 10m) |
		awk -v side="$side" -v pair="$pair" '
			/^Benchmark/ {
				name = $1
				sub(/-[0-9]+$/, "", name)
				for (i = 3; i < NF; i += 2)
					if ($(i+1) == "insts/s")
						print side, pair, name, $i
			}' >> "$work/rates"
}

# Both runs of one benchmark in a pair follow each other, so the
# machine's load drifts little between the two halves of a ratio.
for ((p = 1; p <= pairs; p++)); do
	for bench in $benches; do
		if ((p % 2)); then
			run base "$p" "$bench"
			run head "$p" "$bench"
		else
			run head "$p" "$bench"
			run base "$p" "$bench"
		fi
	done
	echo "pair $p of $pairs done" >&2
done

awk -v min_ratio="$min_ratio" -v min_geo="$min_geo" -v pairs="$pairs" '
	{ rate[$1, $2, $3] = $4; names[$3] = 1 }
	END {
		fail = 0; n = 0; logsum = 0
		for (name in names) {
			k = 0
			for (p = 1; p <= pairs; p++)
				if ((("base", p, name) in rate) && (("head", p, name) in rate) && rate["base", p, name] > 0)
					r[++k] = rate["head", p, name] / rate["base", p, name]
			if (k == 0) {
				printf "%-34s skipped: not measured on both trees\n", name
				continue
			}
			# Insertion sort, then the median.
			for (i = 2; i <= k; i++) {
				v = r[i]
				for (j = i - 1; j >= 1 && r[j] > v; j--) r[j + 1] = r[j]
				r[j + 1] = v
			}
			med = (k % 2) ? r[(k + 1) / 2] : (r[k / 2] + r[k / 2 + 1]) / 2
			line = sprintf("%-34s median %.3f  pairs", name, med)
			for (i = 1; i <= k; i++) line = line sprintf(" %.3f", r[i])
			if (med < min_ratio) {
				line = line sprintf("  FAIL (below %s)", min_ratio)
				fail = 1
			}
			print line
			n++
			logsum += log(med)
		}
		if (n == 0) {
			print "FAIL: no benchmark measured on both trees"
			exit 1
		}
		geo = exp(logsum / n)
		if (geo < min_geo) {
			printf "FAIL: geomean of median ratios %.3f below %s\n", geo, min_geo
			fail = 1
		} else {
			printf "geomean of median ratios %.3f (>= %s)\n", geo, min_geo
		}
		if (fail) exit 1
		print "OK"
	}' "$work/rates"
