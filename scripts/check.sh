#!/usr/bin/env bash
# Full repo health check: build, tests, lints, formatting, and a telemetry
# smoke test (fig6 --telemetry must emit a sidecar that parses back).
set -eu
cd "$(dirname "$0")/.."

echo "=== vendor/ digest (sorted file list and contents)"
# An edit under vendor/ must update this digest, so review sees vendor drift.
vendor_digest="$(find vendor -type f | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -d' ' -f1)"
if [ "$vendor_digest" != 7ab6c8358be442915ae0cb1d8a382bd9ca540d54a44e226b02eca9d50ff4d848 ]; then
    echo "error: vendor/ changed (digest $vendor_digest); update scripts/check.sh" >&2
    exit 1
fi

echo "=== cargo build --release"
cargo build --release --workspace

echo "=== cargo test"
# Includes the idICN chaos soak (crates/idicn/tests/chaos_soak.rs):
# thousands of requests through the overlay with deterministic resets,
# stalls, truncation, and content corruption on the wire.
cargo test -q --workspace

echo "=== cargo clippy -- -D warnings"
# The single static gate; DESIGN.md §7 maps each project rule to its lint.
cargo clippy --workspace --all-targets -- -D warnings

echo "=== sanitizers (advisory; skipped without a nightly toolchain)"
scripts/sanitize.sh || echo "warning: sanitizer run reported issues (advisory only)" >&2

echo "=== cargo fmt --check"
cargo fmt --check --all

echo "=== --no-default-features builds"
cargo build --release --workspace --no-default-features

echo "=== release-profile boundary tests (saturating latency arithmetic)"
cargo test -q --release -p icn-core --lib latency::

echo "=== telemetry smoke (fig6 --telemetry)"
sidecar="$(mktemp /tmp/fig6-telemetry.XXXXXX.json)"
out1="$(mktemp /tmp/fig6-jobs1.XXXXXX.txt)"
out4="$(mktemp /tmp/fig6-jobs4.XXXXXX.txt)"
fail1="$(mktemp /tmp/failures-jobs1.XXXXXX.txt)"
fail4="$(mktemp /tmp/failures-jobs4.XXXXXX.txt)"
dis1="$(mktemp /tmp/disasters-jobs1.XXXXXX.txt)"
dis4="$(mktemp /tmp/disasters-jobs4.XXXXXX.txt)"
dyn1="$(mktemp /tmp/dynamics-jobs1.XXXXXX.txt)"
dyn4="$(mktemp /tmp/dynamics-jobs4.XXXXXX.txt)"
benchjson="$(mktemp /tmp/bench-sim.XXXXXX.json)"
benchjson2="$(mktemp /tmp/bench-sim2.XXXXXX.json)"
outprof="$(mktemp /tmp/fig6-profiled.XXXXXX.txt)"
golden="$(mktemp /tmp/fig6-golden.XXXXXX.txt)"
trap 'rm -f "$sidecar" "$out1" "$out4" "$fail1" "$fail4" "$dis1" "$dis4" "$dyn1" "$dyn4" "$benchjson" "$benchjson2" "$outprof" "$golden"' EXIT
SCALE="${SCALE:-0.02}" cargo run --release -p icn-bench --bin fig6 -- \
    --telemetry "$sidecar" >/dev/null
cargo run --release -p icn-bench --bin telemetry_check -- "$sidecar" >/dev/null
echo "telemetry sidecar OK: $sidecar"

echo "=== parallel determinism cross-check (fig6 JOBS=1 vs JOBS=4)"
SCALE="${SCALE:-0.02}" JOBS=1 cargo run --release -p icn-bench --bin fig6 \
    >"$out1" 2>/dev/null
SCALE="${SCALE:-0.02}" JOBS=4 cargo run --release -p icn-bench --bin fig6 \
    >"$out4" 2>/dev/null
cmp "$out1" "$out4"
echo "JOBS=1 and JOBS=4 stdout byte-identical"

echo "=== committed-figure cross-check (fig6 at its default SCALE vs results/fig6.txt)"
# results/fig6.txt was generated before the request kernel was unified
# and before the in-engine reference mode was replaced by the external
# oracle (crates/core/tests/oracle.rs), so this pins every later kernel
# change to bytes it did not produce itself. Regenerate with scripts/run_all_experiments.sh only for a change
# that is meant to move the figures.
env -u SCALE cargo run --release -p icn-bench --bin fig6 >"$golden" 2>/dev/null
cmp "$golden" results/fig6.txt
echo "fig6 stdout byte-identical to results/fig6.txt"

echo "=== profiler determinism cross-check (fig6 ICN_PROFILE=1)"
# Profiling is pure observation: enabling it must not move a single digit
# of the printed figures (spans time phases but never steer the sweep).
SCALE="${SCALE:-0.02}" JOBS=4 ICN_PROFILE=1 \
    cargo run --release -p icn-bench --bin fig6 >"$outprof" 2>/dev/null
cmp "$out4" "$outprof"
echo "profiled and unprofiled stdout byte-identical"

echo "=== perf benchmark smoke (perf --smoke emits parseable BENCH_sim.json)"
cargo run --release -p icn-bench --bin perf -- --smoke --out "$benchjson" >/dev/null 2>&1
grep -q '"bench": "sim"' "$benchjson"
grep -q '"requests_per_sec"' "$benchjson"
grep -q '"profile"' "$benchjson"
grep -q '"jobs"' "$benchjson"
grep -q '"shards"' "$benchjson"
grep -q '"reconcile_pct"' "$benchjson"
cargo run --release -p icn-bench --bin telemetry_check -- --profile "$benchjson" >/dev/null
echo "perf smoke OK (profile section validates): $benchjson"

echo "=== live /metrics exposition (idICN pipeline scraped in-process)"
cargo run --release -p icn-bench --bin telemetry_check -- --live-metrics

echo "=== bench throughput comparison (advisory: two smoke runs)"
# Back-to-back smoke runs on a shared machine are noisy, so a regression
# here warns instead of failing; compare against a saved baseline for a
# strict gate (see scripts/bench_compare.sh).
cargo run --release -p icn-bench --bin perf -- --smoke --out "$benchjson2" >/dev/null 2>&1
if ! scripts/bench_compare.sh "$benchjson" "$benchjson2"; then
    echo "warning: smoke-run throughput drifted beyond tolerance (advisory only)" >&2
fi

echo "=== fault-injection smoke (failures JOBS=1 vs JOBS=4)"
SCALE="${SCALE:-0.02}" JOBS=1 cargo run --release -p icn-bench --bin failures \
    >"$fail1" 2>/dev/null
SCALE="${SCALE:-0.02}" JOBS=4 cargo run --release -p icn-bench --bin failures \
    >"$fail4" 2>/dev/null
cmp "$fail1" "$fail4"
echo "faulted sweep JOBS=1 and JOBS=4 stdout byte-identical"

echo "=== correlated-disaster smoke (disasters --smoke, JOBS=1 vs JOBS=4)"
# Shared-risk groups, geometric repair, cascading overload, and content
# corruption are all pure functions of (seed, entity, window); routing a
# disaster sweep through the parallel batch path must not move a byte.
JOBS=1 cargo run --release -p icn-bench --bin disasters -- --smoke \
    >"$dis1" 2>/dev/null
JOBS=4 cargo run --release -p icn-bench --bin disasters -- --smoke \
    >"$dis4" 2>/dev/null
cmp "$dis1" "$dis4"
echo "disaster sweep JOBS=1 and JOBS=4 stdout byte-identical"

echo "=== workload-dynamics smoke (dynamics --smoke, JOBS=1 vs JOBS=4)"
# Exercises the streaming dynamics (diurnal/flash/churn), the TTL expiry
# queue, and TinyLFU admission through the parallel sweep path; dynamics
# are pure functions of the trace seed, so stdout must not move a byte.
JOBS=1 cargo run --release -p icn-bench --bin dynamics -- --smoke \
    >"$dyn1" 2>/dev/null
JOBS=4 cargo run --release -p icn-bench --bin dynamics -- --smoke \
    >"$dyn4" 2>/dev/null
cmp "$dyn1" "$dyn4"
echo "dynamics sweep JOBS=1 and JOBS=4 stdout byte-identical"

echo "=== repo benchmark harness (benchmark/: unit tests + --smoke)"
# The harness is a workspace of its own (see BENCHMARK.json); its smoke
# run drives every workload at ~1/20 size with all built-in checks on
# (run == run_streamed, run_sharded 1 vs nproc workers, golden digests).
cargo test --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --smoke

echo "all checks passed"
