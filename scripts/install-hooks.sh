#!/usr/bin/env sh
# Installs the repo's git hooks. Currently one: a pre-push hook that
# runs the invariant linter (`wsd-lint --check`: any unsuppressed
# finding fails) so discipline regressions are caught before they leave
# the machine. Safe to re-run; refuses to clobber a hook it did not write.
set -eu

cd "$(dirname "$0")/.."

hooks_dir=$(git rev-parse --git-path hooks)
hook="$hooks_dir/pre-push"
marker="# installed by scripts/install-hooks.sh"

if [ -e "$hook" ] && ! grep -qF "$marker" "$hook"; then
    echo "install-hooks.sh: $hook exists and was not installed by this script; not overwriting" >&2
    exit 1
fi

mkdir -p "$hooks_dir"
cat > "$hook" <<EOF
#!/usr/bin/env sh
$marker
# Invariant lint gate: a release build must find nothing unsuppressed
# (within its own 500ms analysis budget) before anything is pushed.
set -eu
cd "\$(git rev-parse --show-toplevel)"
cargo build -q --release -p wsd-lint
exec ./target/release/wsd-lint --check --budget-ms 500
EOF
chmod +x "$hook"
echo "install-hooks.sh: installed $hook"
