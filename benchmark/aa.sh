#!/usr/bin/env bash
# A/A check: two interleaved sets (A, B, A, B, ...) of full runs of the same
# build. For every workload x end-to-end metric it prints each set's median
# and quartiles, the A/B median difference and the min-max spread of all
# runs, both against the metric's bound in BENCHMARK.json, and exits
# non-zero if any median difference exceeds its bound.
#
# usage: benchmark/aa.sh [runs-per-set, default 5, at least 5]
#
# Run i of both sets uses seed i, so the sets see the same inputs; seeds
# differ between runs, as they do when the driver measures the spread.
set -euo pipefail

runs=${1:-5}
if [ "$runs" -lt 5 ]; then
    echo "aa.sh: at least 5 runs per set" >&2
    exit 2
fi
here=$(cd "$(dirname "$0")" && pwd)
spec="$here/../BENCHMARK.json"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$spec")
workloads=$(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' "$spec")
out="$here/out/aa"
rm -rf "$out"
mkdir -p "$out"

for i in $(seq 1 "$runs"); do
    for set in A B; do
        for w in $workloads; do
            echo "run $i/$runs set $set $w" >&2
            # Through run.sh, like the driver: same build, same stderr.
            bash "$here/run.sh" --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 |
                tail -n 1 >"$out/last.json"
            grep -q '"correct": true' "$out/last.json" || {
                echo "aa.sh: $w seed $i reports failures" >&2
                exit 1
            }
            # One "metric value" line per end-to-end metric.
            grep -o '"[a-z0-9_]*": {"value": [^,]*' "$out/last.json" |
                sed 's/"\([a-z0-9_]*\)": {"value": \(.*\)/\1 \2/' >>"$out/$set-$w.txt"
        done
    done
done
rm -f "$out/last.json"

status=0
for w in $workloads; do
    echo "== $w ($runs runs per set, $seconds s each)"
    printf '%-16s %12s %12s %12s | %12s %12s %12s | %8s %8s %6s\n' \
        metric A.q1 A.median A.q3 B.q1 B.median B.q3 diff% spread% bound%
    for m in $(sed -n '/"end_to_end"/,/]/s/.*{"name": "\([a-z0-9_]*\)".*/\1/p' "$spec"); do
        bound=$(sed -n "/\"end_to_end\"/,/]/s/.*\"name\": \"$m\".*\"bound\": *\([0-9.]*\).*/\1/p" "$spec")
        for set in A B; do
            awk -v m="$m" '$1 == m { print $2 }' "$out/$set-$w.txt" | sort -g >"$out/$set.sorted"
        done
        # Quartiles as Python's statistics.quantiles(values, n=4) gives them.
        awk -v m="$m" -v bound="$bound" '
            function quartile(v, n, i,    pos, j, d) {
                pos = i * (n + 1) / 4; j = int(pos)
                if (j < 1) j = 1
                if (j > n - 1) j = n - 1
                return v[j] + (v[j + 1] - v[j]) * (pos - j)
            }
            FNR == NR { a[++na] = $1; next }
            { b[++nb] = $1 }
            END {
                am = quartile(a, na, 2); bm = quartile(b, nb, 2)
                lo = a[1] < b[1] ? a[1] : b[1]
                hi = a[na] > b[nb] ? a[na] : b[nb]
                diff = (bm - am) / am * 100; if (diff < 0) diff = -diff
                spread = (hi - lo) / ((am + bm) / 2) * 100
                printf "%-16s %12.4f %12.4f %12.4f | %12.4f %12.4f %12.4f | %8.2f %8.2f %6.1f%s\n",
                    m, quartile(a, na, 1), am, quartile(a, na, 3),
                    quartile(b, nb, 1), bm, quartile(b, nb, 3),
                    diff, spread, bound * 100, (diff > bound * 100 ? "  EXCEEDED" : "")
                exit (diff > bound * 100)
            }' "$out/A.sorted" "$out/B.sorted" || status=1
    done
done
rm -f "$out/A.sorted" "$out/B.sorted"
if [ "$status" -ne 0 ]; then
    echo "aa.sh: an A/B median difference exceeds its bound" >&2
fi
exit "$status"
