#!/usr/bin/env sh
# Offline-safe verification: build, test, lint. No network access needed
# (all dependencies are vendored path crates).
#
# Modes:
#   scripts/verify.sh                  invariant lint + build + test + clippy
#   scripts/verify.sh lint             just the invariant checks: wsd-lint
#                                      on the workspace (any unsuppressed
#                                      finding fails, within a 500ms
#                                      analysis-time budget — the linter's
#                                      own performance is part of the
#                                      contract), wsd-lint linting itself
#                                      (--self, full rule set), a
#                                      warnings-as-errors build, rustdoc
#                                      with warnings as errors (a broken
#                                      intra-doc link fails), and the
#                                      linter's own tests (its fixtures and
#                                      a clean run over the workspace)
#   scripts/verify.sh sanitize         the invariant checks, then the
#                                      wsd-concurrent and wsd-store test
#                                      suites under Miri (UB/aliasing
#                                      sanitizer); skips with a warning
#                                      when the toolchain has no Miri
#   scripts/verify.sh e2e-smoke        the default, plus the frozen end-to-end
#                                      yardstick (`benchmark/`, its own
#                                      workspace) built offline against the
#                                      working tree and each of its four
#                                      workloads run for 2 s: fails when a
#                                      wsd-store / rt API change stops the
#                                      benchmark crate compiling or a workload
#                                      reports `correct: false` (non-zero
#                                      exit); benchmark/Cargo.lock, which the
#                                      build rewrites, is put back on exit
#   scripts/verify.sh reactor-stress   the reactor's scheduling-protocol race
#                                      tests (crates/concurrent/tests/
#                                      reactor_races.rs) built once in release
#                                      and run 200 times, every other run
#                                      pinned to one CPU with `taskset -c 0` —
#                                      a single core is what shakes out a lost
#                                      wake-up (skipped with a notice where
#                                      `taskset` is missing); the default and
#                                      e2e-smoke modes run 20 iterations of
#                                      the same
#   scripts/verify.sh durability-smoke the real-process WAL crash smoke alone
#                                      (also part of the default and e2e-smoke
#                                      modes): SIGKILL
#                                      a durable-msgbox writer mid-deposit over
#                                      a temp dir, recover, assert no acked
#                                      message is lost or delivered twice
set -eu

cd "$(dirname "$0")/.."

# The default sequence runs with no mode and under e2e-smoke, which adds
# the benchmark smoke at the end.
mode=${1:-}
if [ -z "$mode" ] || [ "$mode" = "e2e-smoke" ]; then full=1; else full=; fi

# Invariant checks run first in every mode: they are the cheapest gate
# and the one most likely to catch a discipline regression. Any
# unsuppressed finding fails. The linter also lints itself, with the
# full rule set.
# The budget keeps the linter honest about its own cost: a release
# build must finish the whole-workspace analysis in under 500ms.
cargo build -q --release -p wsd-lint
./target/release/wsd-lint --check --budget-ms 500
./target/release/wsd-lint --self
RUSTFLAGS="-D warnings" cargo build --workspace
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --offline

if [ "$mode" = "lint" ]; then
    cargo test -q -p wsd-lint
    exit 0
fi

# Miri catches UB and aliasing violations the normal test run cannot;
# the concurrency and storage crates are where that risk lives. The
# component is optional in offline toolchains, so absence is a warning,
# not a failure.
if [ "$mode" = "sanitize" ]; then
    if cargo miri --version >/dev/null 2>&1; then
        MIRIFLAGS="${MIRIFLAGS:--Zmiri-disable-isolation}" \
            cargo miri test -p wsd-concurrent -p wsd-store
    else
        echo "verify.sh: WARNING: cargo miri not available in this toolchain; skipping sanitize run" >&2
    fi
    exit 0
fi

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

# Real-process crash coverage for the durable msgbox: the seeded
# property sweep runs under `cargo test`; this adds actual SIGKILLs
# against actual files and fsyncs. Cheap (three rounds), so it is part
# of the default sequence, not just its named mode.
if [ -n "$full" ] || [ "$mode" = "durability-smoke" ]; then
    smoke_dir=$(mktemp -d)
    cargo run -q --release -p wsd-store --bin durability_smoke -- "$smoke_dir"
    rm -rf "$smoke_dir"
fi

# Lost wake-ups, double deregistrations and shutdown races in the
# reactor are schedule-dependent: one pass under `cargo test` proves
# little, so the race tests are repeated, half of the runs squeezed onto
# one CPU where a preempted job and its waker interleave the most.
if [ -n "$full" ] || [ "$mode" = "reactor-stress" ]; then
    if [ -n "$full" ]; then runs=20; else runs=200; fi
    races=$(cargo test --release -p wsd-concurrent --test reactor_races --no-run 2>&1 |
        sed -n 's/.*Executable.*(\(.*reactor_races-[^)]*\)).*/\1/p')
    if [ ! -x "$races" ]; then
        echo "verify.sh: could not locate the reactor_races test binary" >&2
        exit 1
    fi
    if command -v taskset >/dev/null 2>&1; then
        pin="taskset -c 0"
    else
        pin=""
        echo "verify.sh: NOTICE: taskset not found; reactor-stress runs unpinned only" >&2
    fi
    races_log=$(mktemp)
    run=0
    while [ "$run" -lt "$runs" ]; do
        if [ $((run % 2)) -eq 1 ]; then prefix=$pin; else prefix=""; fi
        if ! $prefix "$races" >"$races_log" 2>&1; then
            cat "$races_log"
            rm -f "$races_log"
            echo "verify.sh: reactor-stress FAILED on run $run${prefix:+ ($prefix)}" >&2
            exit 1
        fi
        run=$((run + 1))
    done
    rm -f "$races_log"
    echo "reactor-stress PASS: $runs runs of reactor_races${pin:+, every other one under $pin}"
fi

if [ "$mode" = "e2e-smoke" ]; then
    # Building rewrites the frozen benchmark/Cargo.lock (it still lists
    # dependencies wsd-loadgen dropped): put the checked-in one back on
    # every way out, as bench-pair.sh does.
    lock=benchmark/Cargo.lock
    lock_orig=$(mktemp)
    cp "$lock" "$lock_orig"
    trap 'cp "$lock_orig" "$lock"; rm -f "$lock_orig"' EXIT
    for workload in rpc_echo conv_pingpong backlog_durable sim_fig6; do
        cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --seed 1 --seconds 2 --trace 0 >/dev/null
    done
fi
