#!/usr/bin/env bash
# The repository's one gate, run by CI and locally: formatting, build, the
# workspace tests (which include the fastgr-analysis correctness checks:
# conflict-graph oracle, static schedule validation, happens-before race
# check, mutation sweep, CLI trace schema), clippy (which also enforces the
# workspace lint policy: crate-root lint attributes and the root
# clippy.toml), docs, and release-build determinism and smoke runs. Run
# from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== formatting =="
cargo fmt --all -- --check

echo "== build (release) =="
cargo build --release

echo "== test =="
cargo test -q

echo "== test (workspace) =="
cargo test -q --workspace

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== docs =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

tmp="$(mktemp -d)"
# Building the benchmark package rewrites its lock file; put it back on exit
# so a passing gate leaves the tree as it found it.
cp perfbench/Cargo.lock "$tmp/perfbench.Cargo.lock"
trap 'cp "$tmp/perfbench.Cargo.lock" perfbench/Cargo.lock; rm -rf "$tmp"' EXIT

echo "== suite pattern determinism (s19t9 fastgr-h guides, one vs two workers) =="
FASTGR_WORKERS=1 target/release/fastgr route s19t9 --preset fastgr-h --guides "$tmp/s19t9_w1.guide" >/dev/null
FASTGR_WORKERS=2 target/release/fastgr route s19t9 --preset fastgr-h --guides "$tmp/s19t9_w2.guide" >/dev/null
cmp "$tmp/s19t9_w1.guide" "$tmp/s19t9_w2.guide"

echo "== suite RRR determinism (s19t9m fastgr-l guides, one vs two workers) =="
FASTGR_WORKERS=1 target/release/fastgr route s19t9m --preset fastgr-l --guides "$tmp/s19t9m_w1.guide" >/dev/null
FASTGR_WORKERS=2 target/release/fastgr route s19t9m --preset fastgr-l --guides "$tmp/s19t9m_w2.guide" >/dev/null
cmp "$tmp/s19t9m_w1.guide" "$tmp/s19t9m_w2.guide"

echo "== suite CUGR determinism (s19t9m cugr guides, one vs two workers) =="
FASTGR_WORKERS=1 target/release/fastgr route s19t9m --preset cugr --guides "$tmp/s19t9m_cugr_w1.guide" >/dev/null
FASTGR_WORKERS=2 target/release/fastgr route s19t9m --preset cugr --guides "$tmp/s19t9m_cugr_w2.guide" >/dev/null
cmp "$tmp/s19t9m_cugr_w1.guide" "$tmp/s19t9m_cugr_w2.guide"

echo "== stress smoke (10 random designs x 3 presets, one worker) =="
FASTGR_WORKERS=1 cargo run --release --offline -q -p fastgr-bench --bin stress -- 10 >/dev/null

echo "== stress smoke (10 random designs x 3 presets, two workers) =="
FASTGR_WORKERS=2 cargo run --release --offline -q -p fastgr-bench --bin stress -- 10 >/dev/null

echo "== table VIII smoke (paper accounting read from the run trace) =="
cargo run --release --offline -q -p fastgr-bench --bin reproduce -- table8 >/dev/null

echo "== end-to-end bench script smoke =="
scripts/bench_e2e.sh --seconds 1 --out "$tmp/BENCH_e2e.json"

# The benchmark is a package of its own that calls only the public API, so
# a public-API change that breaks it fails here rather than in a bench run.
echo "== end-to-end benchmark build + tests =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "All checks passed."
