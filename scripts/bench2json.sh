#!/bin/sh
# bench2json.sh — convert `go test -bench` output on stdin to a flat JSON
# object for the committed BENCH_pr*.json perf-trajectory files. Each
# benchmark contributes its ns/op under its name, plus one
# "name:unit" entry per custom metric it reports (b.ReportMetric): the
# ingest benches emit request-latency percentiles (`p99-lat-ns` etc.) and
# sustained `rows/s`; the scan benches emit `peak-bytes` (live-heap
# working set, DESIGN.md §14). `-benchmem` B/op is captured under
# "name:B/op" so allocation regressions gate like time ones; allocs/op is
# dropped (redundant with B/op and noisier across Go versions).
#
# When the input carries repeated measurements of the same benchmark
# (`go test -count N`), the MINIMUM is kept for time-like metrics:
# scheduler preemption, noisy neighbors on shared VMs, and frequency
# scaling only ever inflate a wall-clock sample, so the smallest of N runs
# is the least-contaminated estimate of what the code actually costs. For
# rate metrics (rows/s), where contamination deflates, the MAXIMUM is kept
# by the same logic. B/op and peak-bytes keep the minimum too: pool reuse
# warm-up only ever inflates an early sample.
exec awk '
/^Benchmark/ {
	# go test appends "-N" to every name when GOMAXPROCS N > 1; drop it
	# so recordings from machines with different core counts share keys.
	name = $1
	sub(/-[0-9]+$/, "", name)
	# Fields: name iters v1 u1 v2 u2 ... — walk the value/unit pairs.
	for (f = 3; f + 1 <= NF; f += 2) {
		v = $f; gsub(/,/, "", v); v = v + 0
		u = $(f + 1)
		if (u == "ns/op") key = name
		else if (u ~ /-lat-ns$/ || u == "rows/s") key = name ":" u
		else if (u == "B/op" || u == "peak-bytes") key = name ":" u
		else continue
		if (u == "rows/s") {
			if (!(key in best) || v > best[key]) best[key] = v
		} else {
			if (!(key in best) || v < best[key]) best[key] = v
		}
		if (!(key in seen)) { order[++n] = key; seen[key] = 1 }
	}
}
END {
	print "{"
	# %.0f, not %d: the %d of mawk saturates at 2^31-1, corrupting any
	# benchmark slower than ~2.1 s/op.
	for (i = 1; i <= n; i++) {
		printf "  \"%s\": %.0f%s\n", order[i], best[order[i]], i < n ? "," : ""
	}
	print "}"
}
'
