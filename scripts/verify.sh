#!/usr/bin/env sh
# Tier-1 verification, runnable with zero network access (see the
# offline-build policy in DESIGN.md): release build, default test
# suite, and a warnings-are-errors lint pass. The heavy (feature-gated)
# suites are opt-in: VERIFY_HEAVY=1 scripts/verify.sh
#
# Each gate reports its wall time so slow-gate regressions are visible
# in CI logs; the cocolint gate additionally enforces a hard budget
# (the lint must stay fast enough to run on every commit).
set -eu

cd "$(dirname "$0")/.."

# now_s: integer seconds since the epoch (POSIX sh, no bashisms).
now_s() { date +%s; }

gate_begin() {
    echo "==> $1"
    GATE_T0=$(now_s)
}

gate_end() {
    echo "    ($1: $(($(now_s) - GATE_T0))s)"
}

gate_begin "cargo fmt --check"
cargo fmt --all --check
gate_end "fmt"

gate_begin "cargo build --release"
cargo build --release
gate_end "build"

gate_begin "cargo test -q"
cargo test -q
gate_end "test"

# The end-to-end benchmark (e2ebench/) is a package of its own outside
# the root workspace, so `cargo test` above never compiles it; it
# drives the engine, storage and serve public APIs, so an API change
# that breaks it fails here instead of in the next benchmark run.
# --locked: e2ebench/Cargo.lock records the dependencies of every crate
# the benchmark builds, so a dependency change in a workspace crate
# would make cargo rewrite it; the gate fails instead of silently
# editing a benchmark file.
gate_begin "cargo test --locked --manifest-path e2ebench/Cargo.toml (e2e benchmark)"
cargo test -q --offline --locked --manifest-path e2ebench/Cargo.toml
gate_end "e2e-test"

# scripts/e2e_pairs.sh judges performance claims by the e2ebench
# README's pair rule. Its self-test judges canned pairs holding one
# metric of each verdict (gain, within bound, worse, unresolved), so an
# edit that flips a verdict fails here, not in a PR's report.
gate_begin "e2e_pairs.sh --self-test (pair-rule judge)"
sh scripts/e2e_pairs.sh --self-test
gate_end "pairs-judge"

# The durable epoch tier's crash-recovery contract (torn tails
# quarantine at every truncation boundary, adoption heals the
# rename/manifest crash window, spill round-trips bit-identically) is
# a named gate: it also runs inside `cargo test -q` above, but a
# recovery regression should fail with its own banner, not hide in
# the workspace suite.
gate_begin "cargo test -p integration --test storage_recovery (crash recovery)"
cargo test -q -p integration --test storage_recovery
gate_end "recovery"

# crashsim model-checks the durable tier's commit protocol: the real
# append/compact/spill paths run on a fault-injecting in-memory Vfs,
# then every crash schedule (op prefixes x dropped un-fsynced writes x
# torn final write) replays through real EpochDir::open recovery. The
# bounded tier here explores dozens of schedules per workload; the
# VERIFY_HEAVY block below scales past the 500-schedule floor.
gate_begin "crashsim (bounded crash-consistency model check)"
cargo test -q -p crashsim
gate_end "crashsim"

# The vectorized hot path compiles to different code under
# `--features simd` (AVX2 dispatch in hashkit, batched probe in core),
# so the data-plane crates are tested in both configurations. On
# non-AVX2 hosts the dispatch falls back to the portable kernel and
# the same suites still assert scalar bit-identity.
gate_begin "cargo test -q --features simd (vectorized hot path)"
cargo test -q -p hashkit -p cocosketch -p engine -p cocosketch-cli --features simd
gate_end "simd-test"

gate_begin "cargo build --release --features simd (bench binaries)"
cargo build -q --release -p cocosketch-bench --features simd
gate_end "simd-build"

# --all-targets: tests, benches and examples are linted too, not only
# the libraries and binaries.
gate_begin "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings
gate_end "clippy"

gate_begin "cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
gate_end "doc"

# cocolint gets a wall-time budget: interprocedural analysis over the
# whole workspace must stay under 10s (binary is prebuilt by the
# build gate above, so this times the analysis, not compilation).
# --timings prints per-pass wall time (per-file, callgraph, dataflow,
# atomics, taint, durability) so a budget breach names the pass that
# regressed.
gate_begin "cocolint (cargo run -p xtask -- lint --timings)"
LINT_T0=$(now_s)
cargo run -q -p xtask -- lint --timings
LINT_ELAPSED=$(($(now_s) - LINT_T0))
gate_end "lint"
if [ "$LINT_ELAPSED" -gt 10 ]; then
    echo "verify: FAIL — cocolint took ${LINT_ELAPSED}s (budget: 10s)" >&2
    exit 1
fi

if [ "${VERIFY_HEAVY:-0}" = "1" ]; then
    gate_begin "heavy suites (proptest + criterion shims)"
    cargo test -q -p integration --features heavy-tests
    cargo test -q -p integration --features heavy-tests,simd --test proptest_invariants
    cargo check -q -p cocosketch-bench --features heavy-tests --benches
    gate_end "heavy"
    gate_begin "engine model checking (loom shim)"
    cargo test -q -p engine --features heavy-tests
    gate_end "model"
    gate_begin "serve model checking (catalog/cache under loom)"
    cargo test -q -p serve --features heavy-tests
    gate_end "serve-model"
    gate_begin "crashsim exhaustive (CRASHSIM_EXHAUSTIVE=1, >500 schedules per workload)"
    CRASHSIM_EXHAUSTIVE=1 cargo test -q -p crashsim --test model -- --nocapture
    gate_end "crashsim-heavy"
fi

echo "verify: OK"
