#!/usr/bin/env bash
# Full repo health check: build, tests, lints, formatting, and a telemetry
# smoke test (fig6 --telemetry must emit a sidecar that parses back).
set -eu
cd "$(dirname "$0")/.."

echo "=== cargo build --release"
cargo build --release --workspace

echo "=== cargo test"
# Includes the idICN chaos soak (crates/idicn/tests/chaos_soak.rs):
# thousands of requests through the overlay with deterministic resets,
# stalls, truncation, and content corruption on the wire.
cargo test -q --workspace

echo "=== cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "=== icn-lint (panic paths, determinism, reach/unsafe/hot-path audits)"
# --budget-ms keeps the scan a developer-loop tool: if the interprocedural
# analysis ever gets slow, this fails loudly instead of silently taxing
# every check.sh run (per-rule breakdown: icn-lint --workspace --json).
cargo run -q -p icn-lint -- --workspace --budget-ms 2000

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
outref="$(mktemp /tmp/fig6-reference.XXXXXX.txt)"
fail1="$(mktemp /tmp/failures-jobs1.XXXXXX.txt)"
fail4="$(mktemp /tmp/failures-jobs4.XXXXXX.txt)"
dis1="$(mktemp /tmp/disasters-jobs1.XXXXXX.txt)"
dis4="$(mktemp /tmp/disasters-jobs4.XXXXXX.txt)"
dyn1="$(mktemp /tmp/dynamics-jobs1.XXXXXX.txt)"
dyn4="$(mktemp /tmp/dynamics-jobs4.XXXXXX.txt)"
benchjson="$(mktemp /tmp/bench-sim.XXXXXX.json)"
benchjson2="$(mktemp /tmp/bench-sim2.XXXXXX.json)"
outprof="$(mktemp /tmp/fig6-profiled.XXXXXX.txt)"
shard1="$(mktemp /tmp/fig6-shards1.XXXXXX.txt)"
shard4="$(mktemp /tmp/fig6-shards4.XXXXXX.txt)"
shardref="$(mktemp /tmp/fig6-shardsref.XXXXXX.txt)"
golden="$(mktemp /tmp/fig6-golden.XXXXXX.txt)"
dsh1="$(mktemp /tmp/disasters-shards1.XXXXXX.txt)"
dsh4="$(mktemp /tmp/disasters-shards4.XXXXXX.txt)"
dshref="$(mktemp /tmp/disasters-shardsref.XXXXXX.txt)"
trap 'rm -f "$sidecar" "$out1" "$out4" "$outref" "$fail1" "$fail4" "$dis1" "$dis4" "$dyn1" "$dyn4" "$benchjson" "$benchjson2" "$outprof" "$shard1" "$shard4" "$shardref" "$golden" "$dsh1" "$dsh4" "$dshref"' EXIT
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

echo "=== flat-vs-reference cross-check (fig6 with ICN_SIM_REFERENCE=1)"
# The flat hot path (CostTable, bitmask replica directory, select-min)
# must reproduce the reference implementation byte-for-byte.
SCALE="${SCALE:-0.02}" JOBS=1 ICN_SIM_REFERENCE=1 \
    cargo run --release -p icn-bench --bin fig6 >"$outref" 2>/dev/null
cmp "$out1" "$outref"
echo "flat and reference stdout byte-identical"

echo "=== committed-figure cross-check (fig6 at its default SCALE vs results/fig6.txt)"
# results/fig6.txt was generated before the request kernel was unified,
# so this pins every later kernel change to bytes it did not produce
# itself. Regenerate with scripts/run_all_experiments.sh only for a change
# that is meant to move the figures.
env -u SCALE cargo run --release -p icn-bench --bin fig6 >"$golden" 2>/dev/null
cmp "$golden" results/fig6.txt
echo "fig6 stdout byte-identical to results/fig6.txt"

echo "=== intra-cell shard determinism (fig6 CELL_SHARDS=1 vs 4, vs reference)"
# The epoch-sharded engine defines its semantics per-PoP, so the worker
# count is pure mechanics: CELL_SHARDS=1 and CELL_SHARDS=4 must print the
# same bytes, and both must match the kernel's reference (non-SoA) mode.
# Cell-level JOBS composes with intra-cell shards; stacking both must not
# move a byte either.
SCALE="${SCALE:-0.02}" JOBS=1 CELL_SHARDS=1 \
    cargo run --release -p icn-bench --bin fig6 >"$shard1" 2>/dev/null
SCALE="${SCALE:-0.02}" JOBS=4 CELL_SHARDS=4 \
    cargo run --release -p icn-bench --bin fig6 >"$shard4" 2>/dev/null
SCALE="${SCALE:-0.02}" JOBS=1 CELL_SHARDS=4 ICN_SIM_REFERENCE=1 \
    cargo run --release -p icn-bench --bin fig6 >"$shardref" 2>/dev/null
cmp "$shard1" "$shard4"
cmp "$shard1" "$shardref"
echo "CELL_SHARDS=1 and CELL_SHARDS=4 (with JOBS=4 and reference mode) byte-identical"

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

echo "=== epoch-engine determinism (disasters --smoke, CELL_SHARDS=1 vs 4, vs reference)"
# The figure binaries instrument every grid cell, and instrumented cells
# always take the sequential engine, so the fig6 CELL_SHARDS step above
# never reaches a lane. The disaster sweep calls Scenario::run_config
# uninstrumented: this is the byte-compare that runs the request kernel
# over lane worlds (faults, corruption and cascades included). Epoch
# semantics differ from sequential ones, so equal bytes would mean the
# lanes did not run.
JOBS=1 CELL_SHARDS=1 cargo run --release -p icn-bench --bin disasters -- --smoke \
    >"$dsh1" 2>/dev/null
JOBS=4 CELL_SHARDS=4 cargo run --release -p icn-bench --bin disasters -- --smoke \
    >"$dsh4" 2>/dev/null
JOBS=1 CELL_SHARDS=4 ICN_SIM_REFERENCE=1 cargo run --release -p icn-bench --bin disasters -- --smoke \
    >"$dshref" 2>/dev/null
cmp "$dsh1" "$dsh4"
cmp "$dsh1" "$dshref"
if cmp -s "$dis1" "$dsh1"; then
    echo "error: CELL_SHARDS did not reach the epoch engine" >&2
    exit 1
fi
echo "epoch engine CELL_SHARDS=1 and CELL_SHARDS=4 (with JOBS=4 and reference mode) byte-identical"

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
