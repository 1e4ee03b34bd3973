#!/usr/bin/env bash
# Full local gate, mirroring CI: formatting, build, tests, clippy (which
# also enforces the workspace lint policy: crate-root lint attributes and
# the root clippy.toml), and the fastgr-analysis correctness checks
# (`cargo xtask check` — static schedule validation, happens-before race
# check, mutation sweep). Run from anywhere inside the repository.
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

echo "== xtask check =="
cargo xtask check

echo "== trace export smoke =="
trace_tmp="$(mktemp -d)"
trap 'rm -rf "$trace_tmp"' EXIT
target/release/fastgr generate tiny --out "$trace_tmp/tiny.txt"
target/release/fastgr route "$trace_tmp/tiny.txt" --trace "$trace_tmp/trace.json" >/dev/null
cargo xtask validate-trace "$trace_tmp/trace.json"

echo "== probe equivalence =="
cargo test -q -p fastgr-core --test probe_equivalence

echo "== suite design route + trace smoke =="
target/release/fastgr route s18t5m --preset fastgr-l --trace "$trace_tmp/suite_trace.json" >/dev/null
cargo xtask validate-trace "$trace_tmp/suite_trace.json"

echo "== suite pattern determinism (s19t9 fastgr-h guides, one vs two workers) =="
FASTGR_WORKERS=1 target/release/fastgr route s19t9 --preset fastgr-h --guides "$trace_tmp/s19t9_w1.guide" >/dev/null
FASTGR_WORKERS=2 target/release/fastgr route s19t9 --preset fastgr-h --guides "$trace_tmp/s19t9_w2.guide" >/dev/null
cmp "$trace_tmp/s19t9_w1.guide" "$trace_tmp/s19t9_w2.guide"

echo "== suite RRR determinism (s19t9m fastgr-l guides, one vs two workers) =="
FASTGR_WORKERS=1 target/release/fastgr route s19t9m --preset fastgr-l --guides "$trace_tmp/s19t9m_w1.guide" >/dev/null
FASTGR_WORKERS=2 target/release/fastgr route s19t9m --preset fastgr-l --guides "$trace_tmp/s19t9m_w2.guide" >/dev/null
cmp "$trace_tmp/s19t9m_w1.guide" "$trace_tmp/s19t9m_w2.guide"

echo "== stress smoke (10 random designs x 3 presets, one worker) =="
FASTGR_WORKERS=1 cargo run --release --offline -q -p fastgr-bench --bin stress -- 10 >/dev/null

echo "== stress smoke (10 random designs x 3 presets, two workers) =="
FASTGR_WORKERS=2 cargo run --release --offline -q -p fastgr-bench --bin stress -- 10 >/dev/null

echo "== table VIII smoke (paper accounting read from the run trace) =="
cargo run --release --offline -q -p fastgr-bench --bin reproduce -- table8 >/dev/null

echo "== end-to-end bench script smoke =="
scripts/bench_e2e.sh --seconds 1 --out "$trace_tmp/BENCH_e2e.json"

# The benchmark is a package of its own that calls only the public API, so
# a public-API change that breaks it fails here rather than in a bench run.
echo "== end-to-end benchmark build + tests =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "All checks passed."
