#!/usr/bin/env sh
# Which tests kill which mutant? Each row under scripts/mutants/ is one
# mutant: a `git apply`-able diff named `<id>.diff`, headed by `#` lines
# that say which invariant it breaks. For every row the runner applies
# the diff to a copy of the tree, runs the whole test suite, and prints
# the tests that fail — the ones that guard that invariant. A row that
# no test kills says `SURVIVED`.
#
#   scripts/mutants.sh [rev=HEAD] [id...]
#
# `.` as the revision is the working tree (tracked and untracked files
# git does not ignore). The tree is extracted under target/mutants/tree
# (`git archive`, nothing registered in .git) and every row builds into
# one shared target directory, target/mutants/target, so a row rebuilds
# only the crates its diff touches. Each row builds the test binaries of
#
#   cargo test --workspace --exclude wsd-lint
#   cargo test -p wsd-lint
#
# once, then runs every binary under its own timeout (and the doctests
# under one more), so a mutant that hangs one binary names it and the
# binaries after it still run. The linter's own tests are listed apart:
# they fail on any finding in the edited tree, so they say whether a
# lint rule sees the mutant, not whether the product's tests do. A diff
# that no longer applies fails loudly, by name, and the run exits
# non-zero. Logs are kept under target/mutants/logs/. This is not part
# of scripts/verify.sh: a full run takes about as long as two warm
# suites per row.
set -eu

cd "$(dirname "$0")/.."
root=$PWD
rev=${1:-HEAD}
[ $# -gt 0 ] && shift
work=$root/target/mutants
tree=$work/tree
logs=$work/logs
export CARGO_TARGET_DIR=$work/target
# Keep git from finding this repository above the extracted tree:
# `git apply` then patches the tree's files as plain files.
export GIT_CEILING_DIRECTORIES=$work

rm -rf "$tree" "$logs"
mkdir -p "$tree" "$logs"
if [ "$rev" = . ]; then
    # `ls-files -c` still lists a tracked file the working tree deleted:
    # keep only the files that exist.
    git ls-files -z -c -o --exclude-standard |
        xargs -0 sh -c 'for f; do if [ -e "$f" ]; then printf "%s\0" "$f"; fi; done' sh |
        tar --null -T - -cf - | tar -x -C "$tree"
else
    git archive "$rev" | tar -x -C "$tree"
fi
# Extracted files carry their commit's time (or the working tree's), so
# cargo could take an artefact of another revision for them: date every
# file now, and the first build is of this tree.
find "$tree" -type f -exec touch {} +

# Seconds one test binary (or the doctests of one side) may run.
per_binary=600

# Runs the suite in the tree; `$1` names the log. Prints the failing
# tests, one per line, the linter's prefixed with `lint: `.
suite() {
    for side in product lint; do
        prefix="" args="--workspace --exclude wsd-lint"
        [ $side = lint ] && prefix="lint: " args="-p wsd-lint"
        log=$logs/$1.$side.log
        bins=$logs/$1.$side.bins
        # Build once; list each test binary with its package directory,
        # the working directory `cargo test` would give it.
        # shellcheck disable=SC2086 # the args are words
        (cd "$tree" && cargo test $args --no-run --message-format=json-render-diagnostics) 2>"$log" |
            jq -r 'select(.reason == "compiler-artifact" and .profile.test and .executable != null)
                   | "\(.manifest_path | rtrimstr("/Cargo.toml"))\t\(.executable)"' >"$bins"
        tab=$(printf '\t')
        while IFS=$tab read -r dir exe; do
            rc=0
            (cd "$dir" && timeout $per_binary "$exe" -q) </dev/null >>"$log" 2>&1 || rc=$?
            if [ $rc -eq 124 ]; then echo "${prefix}(timed out: ${exe##*/} hangs, see $log)"; fi
        done <"$bins"
        rc=0
        # shellcheck disable=SC2086
        (cd "$tree" && timeout $per_binary cargo test $args --doc -q --no-fail-fast) >>"$log" 2>&1 || rc=$?
        if [ $rc -eq 124 ]; then echo "${prefix}(timed out: the doctests hang, see $log)"; fi
        sed -n 's/^---- \(.*\) stdout ----$/\1/p' "$log" | sort -u | sed "s/^/$prefix/"
        # A build that fails names no test.
        if grep -q '^error: could not compile' "$log"; then echo "${prefix}(does not compile)"; fi
    done
}

echo "baseline: $rev"
suite baseline >"$logs/baseline.failing"
if [ -s "$logs/baseline.failing" ]; then
    echo "  fails without a mutant (subtracted from every row):"
    sed 's/^/    /' "$logs/baseline.failing"
fi

if [ $# -eq 0 ]; then
    set -- $(ls scripts/mutants/ | sed -n 's/\.diff$//p')
fi
status=0
for id in "$@"; do
    row=$root/scripts/mutants/$id.diff
    echo
    echo "== $id ($(sed -n 's|^+++ b/||p' "$row" | sort -u | tr '\n' ' ' | sed 's/ $//'))"
    sed -n 's/^# /   /p' "$row"
    if ! (cd "$tree" && git apply --check "$row") 2>"$logs/$id.apply"; then
        echo "   DOES NOT APPLY: $(head -1 "$logs/$id.apply")"
        status=1
        continue
    fi
    (cd "$tree" && git apply "$row")
    suite "$id" | grep -vxF -f "$logs/baseline.failing" >"$logs/$id.failing" || true
    # Undo the edit; the undone files are newer than their artefacts, so
    # the next row's build recompiles them.
    (cd "$tree" && git apply -R "$row")
    killed=$(grep -cv '^lint: ' "$logs/$id.failing" || true)
    if grep -q '^(does not compile)$' "$logs/$id.failing"; then
        echo "   DOES NOT COMPILE: see $logs/$id.product.log"
        status=1
    elif [ "$killed" -eq 0 ]; then
        echo "   SURVIVED the product's tests"
    else
        echo "   killed by ($killed):"
        grep -v '^lint: ' "$logs/$id.failing" | sed 's/^/     /'
    fi
    if grep -q '^lint: ' "$logs/$id.failing"; then
        echo "   wsd-lint's tests that fail:"
        sed -n 's/^lint: /     /p' "$logs/$id.failing"
    else
        echo "   wsd-lint's tests: all pass"
    fi
done
exit $status
