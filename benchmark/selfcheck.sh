#!/usr/bin/env bash
# Runs the full set of workloads twice on one build and compares every
# end-to-end metric of the second set with the first, against the
# metric's own bound in BENCHMARK.json. Prints one row per (workload,
# metric) pair; exits non-zero on a miss, an incorrect output or any
# failed operation.
#
# usage: benchmark/selfcheck.sh [seed] [seconds]     (defaults: 1, run_seconds)
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds="${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
mkdir -p benchmark/out
out="$(mktemp -d benchmark/out/selfcheck.XXXXXX)"
trap 'rm -rf "$out"' EXIT
for set in first second; do
    # A wrong output exits 1; keep going so the table shows which.
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --seed "$seed" --seconds "$seconds" >"$out/$set.jsonl" || true
done
python3 - "$out/first.jsonl" "$out/second.jsonl" <<'PY'
import json, sys

spec = json.load(open("BENCHMARK.json"))
def load(path):
    return {r["workload"]: r for r in map(json.loads, open(path))}
first, second = load(sys.argv[1]), load(sys.argv[2])
ok = True
print(f"{'workload':<16} {'metric':<20} {'first':>14} {'second':>14} {'worse by':>9} {'bound':>6}")
for w in (w["name"] for w in spec["workloads"]):
    for run, rows in (("first", first), ("second", second)):
        r = rows.get(w)
        if r is None or not r["correct"] or r["failed"] > 0:
            ok = False
            print(f"{w:<16} {run} run: " + ("no result" if r is None else
                  f"correct={r['correct']} failed={r['failed']}/{r['attempted']}"))
    if w not in first or w not in second:
        continue
    for m in spec["end_to_end"]:
        a = first[w]["metrics"][m["name"]]["value"]
        b = second[w]["metrics"][m["name"]]["value"]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        miss = worse > m["bound"]
        ok &= not miss
        print(f"{w:<16} {m['name']:<20} {a:>14.6g} {b:>14.6g} {worse:>+9.3f} {m['bound']:>6}"
              + ("  MISS" if miss else ""))
print("selfcheck:", "PASS" if ok else "FAIL")
sys.exit(0 if ok else 1)
PY
