#!/usr/bin/env sh
# Parent-against-change runs of one benchmark workload, the way
# choosing-metrics §8 asks for them: the frozen `benchmark/` crate built
# once against the parent commit and once against the working tree, N
# pairs of runs with the side that goes first alternating and seeds 1..N,
# and for every end-to-end metric of BENCHMARK.json each side's median
# and quartiles plus who won how many pairs. Then one `--trace 1` run a
# side (seed 1, same length) and every per-layer metric of BENCHMARK.json
# side by side, parent -> change, so a claim's layer rows come from the
# same binaries as its end-to-end numbers. Under each end-to-end row is
# a verdict on it, judged with the metric's `bound`:
#   gain        the change wins >= 9/10 of the pairs and its median is
#               better by more than the parent's quartile distance;
#   regression  the change's median is worse by more than the bound;
#   unresolved  the parent's quartile distance is wider than the bound
#               and not every change run beats every parent run;
#   no change   anything else.
#
#   scripts/bench-pair.sh <workload> [pairs=10] [seconds=25] [parent=HEAD~]
#
# The parent's sources are a `git archive` under target/bench-pair/ (no
# worktree, nothing registered in .git); each binary runs from its own
# checkout, so each side's WALs land in its own benchmark/out. Every
# run's JSON line is kept in target/bench-pair/<workload>.runs (the
# traced ones in <workload>.traces).
set -eu

if [ $# -lt 1 ]; then
    sed -n '2,25p' "$0" >&2
    exit 2
fi
workload=$1
pairs=${2:-10}
seconds=${3:-25}
parent=${4:-HEAD~}

cd "$(dirname "$0")/.."
root=$PWD
work=$root/target/bench-pair
rm -rf "$work/parent"
mkdir -p "$work/parent"
git archive "$parent" | tar -x -C "$work/parent"
# An archive's files carry their commit's time, so cargo takes an older
# revision for unchanged sources: a different parent starts from nothing.
rev=$(git rev-parse "$parent")
if [ "$(cat "$work/parent.rev" 2>/dev/null)" != "$rev" ]; then
    rm -rf "$work/parent-target"
    echo "$rev" >"$work/parent.rev"
fi

# Building rewrites the frozen benchmark/Cargo.lock (it still lists two
# dependencies wsd-loadgen dropped): put the checked-in one back.
lock=$root/benchmark/Cargo.lock
cp "$lock" "$work/Cargo.lock.orig"
trap 'cp "$work/Cargo.lock.orig" "$lock"' EXIT
build() { # <checkout> <target dir>
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml"
}
build "$work/parent" "$work/parent-target"
build "$root" "$work/change-target"

runs=$work/$workload.runs
: >"$runs"
run() { # <side> <seed> [trace=0] [log=$runs]
    line=$("$work/$1-target/release/wsd-benchmark" --workload "$workload" \
        --seed "$2" --seconds "$seconds" --trace "${3:-0}" 2>/dev/null | tail -n 1) || true
    echo "$1 $2 $line" >>"${4:-$runs}"
}
seed=1
while [ "$seed" -le "$pairs" ]; do
    if [ $((seed % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        run "$side" "$seed"
    done
    echo "pair $seed/$pairs done" >&2
    seed=$((seed + 1))
done
traces=$work/$workload.traces
: >"$traces"
for side in parent change; do
    run "$side" 1 1 "$traces"
done
echo "traced runs done" >&2

# `value(line)`: metric `name`'s value in one run's JSON line.
value='function value(line,    at, rest) {
    at = index(line, "\"" name "\": {\"value\": ")
    if (at == 0) return "nan"
    rest = substr(line, at + length(name) + 14)
    sub(/[,}].*/, "", rest)
    return rest + 0
}'

# `name better bound` of every end-to-end metric, from BENCHMARK.json.
metrics=$(sed -n '/"end_to_end"/,/\]/s/.*"name": "\([^"]*\)".*"better": "\([^"]*\)".*"bound": \([0-9.]*\).*/\1 \2 \3/p' \
    BENCHMARK.json)

echo "$workload: $pairs pairs, $seconds s a run, parent $(git rev-parse --short "$parent"), $(nproc) core(s)"
echo "$metrics" | while read -r name better bound; do
    awk -v name="$name" -v better="$better" -v bound="$bound" "$value"'
        # Quartile q of the sorted v[1..n], linear between ranks.
        function quantile(v, n, q,    h, lo) {
            h = (n - 1) * q + 1; lo = int(h)
            return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
        }
        function sorted(src, dst, n,    i, j, t) {
            for (i = 1; i <= n; i++) dst[i] = src[i]
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
        }
        $1 == "parent" { p[$2] = value($0); pairs = $2 > pairs ? $2 : pairs }
        $1 == "change" { c[$2] = value($0) }
        END {
            # Only pairs in which both runs reported the metric.
            for (i = 1; i <= pairs; i++) {
                if (p[i] == "nan" || c[i] == "nan") continue
                n++; pv[n] = p[i]; cv[n] = c[i]
                if (p[i] == c[i]) ties++
                else if ((better == "higher") == (c[i] > p[i])) wins++
                else losses++
            }
            if (n == 0) exit
            sorted(pv, ps, n); sorted(cv, cs, n)
            printf "  %-20s parent %12.3f [%12.3f, %12.3f]  change %12.3f [%12.3f, %12.3f]  %+7.1f%%  change wins %d, loses %d, ties %d of %d (%s is better)\n",
                name, quantile(ps, n, 0.5), quantile(ps, n, 0.25), quantile(ps, n, 0.75),
                quantile(cs, n, 0.5), quantile(cs, n, 0.25), quantile(cs, n, 0.75),
                100 * (quantile(cs, n, 0.5) / quantile(ps, n, 0.5) - 1), wins, losses, ties, n, better
            pm = quantile(ps, n, 0.5); up = better == "higher"
            ahead = up ? quantile(cs, n, 0.5) - pm : pm - quantile(cs, n, 0.5)
            spread = quantile(ps, n, 0.75) - quantile(ps, n, 0.25)
            allowed = bound * (pm < 0 ? -pm : pm)
            if (wins >= 0.9 * n && ahead > spread) verdict = "gain"
            else if (-ahead > allowed) verdict = "regression"
            else if (spread > allowed && !(up ? cs[1] > ps[n] : cs[n] < ps[1])) verdict = "unresolved"
            else verdict = "no change"
            printf "  %-20s %s\n", "", verdict
        }' "$runs"
done
# Anything but `correct: true` with `failed: 0` on every run is the headline.
awk '!/"correct": true/ || !/"failed": 0,/ { bad++; print "  NOT CLEAN: " $0 } END { if (!bad) print "  every run correct, failed = 0" }' "$runs" "$traces"

# `name unit` of every per-layer metric, from BENCHMARK.json; a row both
# sides report as 0 is a layer the workload does not exercise.
layers=$(sed -n '/"per_layer"/,/\]/s/.*"name": "\([^"]*\)".*"unit": "\([^"]*\)".*/\1 \2/p' \
    BENCHMARK.json)
echo "$workload: per-layer rows, one --trace 1 run a side (seed 1), parent -> change"
echo "$layers" | while read -r name unit; do
    awk -v name="$name" -v unit="$unit" "$value"'
        $1 == "parent" { p = value($0) }
        $1 == "change" { c = value($0) }
        END {
            if (p "" == "nan" || c "" == "nan") { printf "  %-38s missing (run failed)\n", name; exit }
            if (p == 0 && c == 0) exit
            printf "  %-38s %14.3f -> %14.3f  %+7.1f%%  %s\n", name, p, c,
                p == 0 ? 0 : 100 * (c / p - 1), unit
        }' "$traces"
done
