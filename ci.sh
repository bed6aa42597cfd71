#!/usr/bin/env bash
# Tier-1 verification plus lint gates; what .github/workflows/ci.yml runs.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --release

echo "== benchmark build: perfbench compiles against the public API it calls"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== cargo test"
cargo test --workspace -q --no-fail-fast

echo "== remote-ingress example (smoke)"
cargo run --release --example gateway_remote

echo "== live-reshard example (smoke): workload keeps writing while a shard joins"
cargo run --release --example reshard_live

echo "== failover-storm example (smoke): primary killed at R=2, zero lost acked writes"
cargo run --release --example failover_storm

echo "== trace-storm example (smoke): span tree from admission to state and back"
cargo run --release --example trace_storm

echo "== cache-locality example (smoke): zipfian storm, hit rate + zero staleness across a reshard"
cargo run --release --example cache_locality

echo "== coldstart-storm example (smoke): pre-staged 0→N scale-up, warm-restore rate >= 90%"
cargo run --release --example coldstart_storm

echo "== gateway throughput bench, batched mode included (smoke)"
cargo bench -p faasm-bench --bench gateway_throughput -- --test

echo "== state throughput bench, batching + shard scaling (smoke)"
cargo bench -p faasm-bench --bench state_throughput -- --test

echo "== vm dispatch bench, lowered tier must beat the interpreter (smoke)"
cargo bench -p faasm-bench --bench vm_dispatch -- --test

echo "== coldstart bench, one capture + cross-version chunk dedup (smoke)"
cargo bench -p faasm-bench --bench coldstart -- --test

echo "CI OK"
