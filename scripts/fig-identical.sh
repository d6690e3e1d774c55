#!/usr/bin/env sh
# Are the figures byte-identical to the parent's? `experiments` built
# once against the parent commit and once against the working tree, each
# into its own target directory, then the `--json` output of each figure
# set below compared with `cmp`. Exits non-zero on any difference, so a
# "figures unchanged" claim is this command's exit status.
#
#   scripts/fig-identical.sh [parent=HEAD~]
#
# The parent's sources are a `git archive` under target/fig-identical/
# (no worktree, nothing registered in .git), built from nothing whenever
# the parent revision changes; each side's JSON is kept there too.
set -eu

parent=${1:-HEAD~}

cd "$(dirname "$0")/.."
root=$PWD
work=$root/target/fig-identical
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

build() { # <checkout> <target dir>
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet -p wsd-experiments \
        --manifest-path "$1/Cargo.toml"
}
build "$work/parent" "$work/parent-target"
build "$root" "$work/change-target"

status=0
for flags in "--all --quick" "--fig6-durable --quick" "--fleet --quick"; do
    name=$(echo "$flags" | sed 's/--//g; s/ /-/g')
    for side in parent change; do
        # shellcheck disable=SC2086 # the flags are words
        "$work/$side-target/release/experiments" $flags --json "$work/$side.$name.json" >/dev/null
    done
    if cmp "$work/parent.$name.json" "$work/change.$name.json"; then
        echo "identical: $flags"
    else
        echo "DIFFERENT: $flags (parent $(git rev-parse --short "$parent"))"
        status=1
    fi
done
exit $status
