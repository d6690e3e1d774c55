#!/usr/bin/env sh
# Settable values per crate under crates/, and of the root package
# (`root`: src/, examples/), in non-test code:
#
#   field   a `pub` field of a `pub struct` named *Config, *Params or Limits
#   setter  a `pub fn name(mut self, ...) -> Self` on one of those types or
#           on a *Builder
#   start   a `pub fn start_with_*` constructor variant
#
#   scripts/knobs.sh [rev]          one revision (default: the working tree):
#                                   every knob by name, and the count per crate
#   scripts/knobs.sh <rev> <rev2>   the count per crate for both and the
#                                   change, then the knobs removed and added
#
# `.` names the working tree. Test code is skipped as `scripts/lines.sh`
# skips it: tests/ directories, and each file from its first `#[cfg(test)]`
# at the start of a line. A revision is read from a `git archive` under
# target/knobs/<commit>/, extracted once per commit. A CHANGES entry pastes
# `scripts/knobs.sh HEAD~ HEAD`, or `HEAD .` before committing. A crate
# with no knob gets no line.
set -eu
export LC_ALL=C

cd "$(dirname "$0")/.."
root=$PWD

# The directory holding revision $1's sources.
checkout() {
    if [ "$1" = . ]; then
        echo "$root"
        return
    fi
    rev=$(git rev-parse --verify --quiet "$1^{commit}") || {
        echo "knobs.sh: no such revision: $1" >&2
        exit 2
    }
    dir=$root/target/knobs/$rev
    if [ ! -d "$dir" ]; then
        rm -rf "$dir.part"
        mkdir -p "$dir.part"
        git archive "$rev" | tar -x -C "$dir.part"
        mv "$dir.part" "$dir"
    fi
    echo "$dir"
}

# `<crate> <kind> <name>` for every knob of checkout $1, sorted.
knobs() {
    cd "$1"
    find crates src examples -name '*.rs' -not -path '*/tests/*' | sort | xargs awk -v q="'" '
        function crate_of(path,   parts) {
            if (path !~ /^crates\//) return "root"
            split(path, parts, "/")
            return parts[2]
        }
        # The type an `impl` line is for: `impl<T> Trait for Type<T>` is Type.
        function impl_type(line,   rest, d, i, c) {
            sub(/^[ \t]*impl[ \t]*/, "", line)
            if (substr(line, 1, 1) == "<") {
                d = 0
                for (i = 1; i <= length(line); i++) {
                    c = substr(line, i, 1)
                    if (c == "<") d++
                    else if (c == ">" && --d == 0) break
                }
                line = substr(line, i + 1)
            }
            if (match(line, / for /)) line = substr(line, RSTART + RLENGTH)
            sub(/^[ \t]*/, "", line)
            match(line, /^[A-Za-z0-9_]+/)
            return substr(line, RSTART, RLENGTH)
        }
        function knob_type(name) {
            return name ~ /(Config|Params)$/ || name == "Limits"
        }
        function fn_name(line) {
            match(line, /pub fn [A-Za-z0-9_]+/)
            return substr(line, RSTART + 7, RLENGTH - 7)
        }
        FNR == 1 { skip = 0; depth = 0; strct = ""; impl = ""; sig = "" }
        /^#\[cfg\(test\)\]/ { skip = 1 }
        skip { next }
        {
            code = $0
            gsub(q "[{}]" q, "", code)                 # brace char literals
            gsub(/"([^"\\]|\\.)*"/, "\"\"", code)        # string literals
            sub(/\/\/.*/, "", code)                       # line comments
            crate = crate_of(FILENAME)
            if (depth == 0 && code ~ /^pub struct [A-Za-z0-9_]+.*\{/) {
                match(code, /^pub struct [A-Za-z0-9_]+/)
                name = substr(code, 12, RLENGTH - 11)
                if (knob_type(name)) strct = name
            } else if (strct != "" && depth == 1 && code ~ /^[ \t]*pub [a-z_][a-z0-9_]*[ \t]*:/) {
                match(code, /pub [a-z_][a-z0-9_]*/)
                print crate, "field", strct "." substr(code, RSTART + 4, RLENGTH - 4)
            }
            if (depth == 0 && code ~ /^impl[ <]/) impl = impl_type(code)
            if (depth == 1 && code ~ /^[ \t]*pub fn /) sig = code
            else if (sig != "") sig = sig " " code
            if (sig != "" && sig ~ /[{;]/) {
                f = fn_name(sig)
                if (f ~ /^start_with_/)
                    print crate, "start", impl "::" f
                else if ((knob_type(impl) || impl ~ /Builder$/) &&
                         sig ~ /\([ \t]*mut self/ && sig ~ /->[ \t]*Self/)
                    print crate, "setter", impl "::" f
                sig = ""
            }
            opens = gsub(/\{/, "{", code)
            closes = gsub(/\}/, "}", code)
            depth += opens - closes
            if (depth == 0) { strct = ""; impl = "" }
        }
    ' | sort
    cd "$root"
}

label() {
    if [ "$1" = . ]; then echo worktree; else git rev-parse --short "$1"; fi
}

if [ $# -le 1 ]; then
    knobs "$(checkout "${1:-.}")" | awk '
        function flush() {
            if (crate != "") printf "%-12s %5d\n%s", crate, n, names
            names = ""; n = 0
        }
        $1 != crate { flush(); crate = $1 }
        { names = names sprintf("  %-7s %s\n", $2, $3); n++; total++ }
        END { flush(); printf "%-12s %5d\n", "total", total }'
    exit 0
fi

from=$(knobs "$(checkout "$1")")
to=$(knobs "$(checkout "$2")")
{
    echo "$from" | sed '/^$/d; s/^/0 /'
    echo "$to" | sed '/^$/d; s/^/1 /'
} | awk -v a="$(label "$1")" -v b="$(label "$2")" '
    !($2 in seen) { seen[$2] = 1; crates[++nc] = $2 }
    { n[$1, $2]++ }
    END {
        printf "%-12s %9s %9s %7s\n", "crate", a, b, "change"
        for (i = 1; i <= nc; i++) {
            c = crates[i]
            printf "%-12s %9d %9d %+7d\n", c, n[0, c], n[1, c], n[1, c] - n[0, c]
            t0 += n[0, c]; t1 += n[1, c]
        }
        printf "%-12s %9d %9d %+7d\n", "total", t0, t1, t1 - t0
    }'
# The names on one side only: `comm` needs both lists sorted, as they are.
diff_names() {
    mkdir -p "$root/target/knobs"
    printf '%s\n' "$1" >"$root/target/knobs/.a"
    printf '%s\n' "$2" >"$root/target/knobs/.b"
    comm -23 "$root/target/knobs/.a" "$root/target/knobs/.b" | sed '/^$/d; s/^/  /' |
        grep . || echo "  none"
}
echo
echo "removed:"
diff_names "$from" "$to"
echo "added:"
diff_names "$to" "$from"
