#!/usr/bin/env sh
# Lines of Rust per crate under crates/, and of the root package (`root`:
# src/, tests/, examples/), counted two ways:
#
#   all       every .rs file of the crate, lint fixtures excluded
#   non-test  every .rs file outside a tests/ directory, each counted up to
#             its first `#[cfg(test)]` at the start of a line (its test
#             module)
#
#   scripts/lines.sh [rev]          one revision (default: the working tree)
#   scripts/lines.sh <rev> <rev2>   both, and the change from rev to rev2
#
# `.` names the working tree. A revision is read from a `git archive`
# under target/lines/<commit>/, extracted once per commit (no worktree,
# nothing registered in .git). A CHANGES entry pastes the two-revision
# table: `scripts/lines.sh HEAD~ HEAD`, or `HEAD .` before committing.
set -eu

cd "$(dirname "$0")/.."
root=$PWD

# The directory holding revision $1's sources.
checkout() {
    if [ "$1" = . ]; then
        echo "$root"
        return
    fi
    rev=$(git rev-parse --verify --quiet "$1^{commit}") || {
        echo "lines.sh: no such revision: $1" >&2
        exit 2
    }
    dir=$root/target/lines/$rev
    if [ ! -d "$dir" ]; then
        rm -rf "$dir.part"
        mkdir -p "$dir.part"
        git archive "$rev" | tar -x -C "$dir.part"
        mv "$dir.part" "$dir"
    fi
    echo "$dir"
}

# `<name> <all> <non-test>` for the .rs files under directories $2...
tally() {
    name=$1
    shift
    all=$(find "$@" -name '*.rs' -not -path '*/tests/fixtures/*' -exec cat {} + | wc -l)
    non_test=$(find "$@" -name '*.rs' -not -path '*/tests/*' \
        -exec awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }' {} + |
        awk '{ n += $1 } END { print n + 0 }')
    echo "$name $all $non_test"
}

# One line per crate of checkout $1, then `root`: the ws-dispatcher
# package itself (src/, tests/, examples/).
count() {
    cd "$1"
    for crate in crates/*/; do
        crate=${crate%/}
        tally "${crate#crates/}" "$crate"
    done
    tally root ./src ./tests ./examples
    cd "$root"
}

label() {
    if [ "$1" = . ]; then echo worktree; else git rev-parse --short "$1"; fi
}

if [ $# -le 1 ]; then
    count "$(checkout "${1:-.}")" | awk '
        BEGIN { printf "%-12s %7s %9s\n", "crate", "all", "non-test" }
        { printf "%-12s %7d %9d\n", $1, $2, $3; all += $2; nt += $3 }
        END { printf "%-12s %7d %9d\n", "total", all, nt }'
    exit 0
fi

from=$(checkout "$1")
to=$(checkout "$2")
{
    count "$from" | sed 's/^/0 /'
    count "$to" | sed 's/^/1 /'
} | awk -v a="$(label "$1")" -v b="$(label "$2")" '
    !($2 in seen) { seen[$2] = 1; order[++n] = $2 }
    { all[$1, $2] = $3; nt[$1, $2] = $4 }
    function row(name, a0, a1, n0, n1) {
        printf "%-12s %9d %9d %+7d   %9d %9d %+7d\n", name, a0, a1, a1 - a0, n0, n1, n1 - n0
    }
    END {
        printf "%-12s %27s   %27s\n", "", "all", "non-test"
        printf "%-12s %9s %9s %7s   %9s %9s %7s\n", "crate", a, b, "change", a, b, "change"
        for (i = 1; i <= n; i++) {
            c = order[i]
            row(c, all[0, c], all[1, c], nt[0, c], nt[1, c])
            for (s = 0; s <= 1; s++) { ta[s] += all[s, c]; tn[s] += nt[s, c] }
        }
        row("total", ta[0], ta[1], tn[0], tn[1])
    }'
