#!/usr/bin/env bash
# Full repo health check: build, tests, lints, formatting, the telemetry
# sidecar, and byte-compares of every experiment's stdout (all 14
# committed results/ files, JOBS=1 vs JOBS=4, with and without
# --telemetry).
set -eu
cd "$(dirname "$0")/.."

echo "=== vendor/ digest (sorted file list and contents)"
# An edit under vendor/ must update this digest, so review sees vendor drift.
vendor_digest="$(find vendor -type f | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -d' ' -f1)"
if [ "$vendor_digest" != 4881e0d639f1f71b9437e004f5b8d5f25310c127a08cd4aa8c6413016a5212fc ]; then
    echo "error: vendor/ changed (digest $vendor_digest); update scripts/check.sh" >&2
    exit 1
fi

echo "=== idICN: one accept loop, no non-blocking polls"
# Every idICN server runs http::serve_streams' blocking accept; a second
# loop or a set_nonblocking poll would bring back per-connection latency.
accept_sites="$(grep -rnE '\.(incoming|accept)\(\)' crates/idicn/src || true)"
if [ "$(printf '%s' "$accept_sites" | grep -c .)" -ne 1 ] || grep -rn 'set_nonblocking' crates/idicn/src; then
    printf 'error: crates/idicn/src needs exactly one accept site and no set_nonblocking:\n%s\n' \
        "$accept_sites" >&2
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

echo "=== release-profile boundary tests (saturating latency arithmetic)"
cargo test -q --release -p icn-core --lib latency::

echo "=== release-profile crypto known-answer tests (the unrolled SHA-256 kernel as optimized code)"
cargo test -q --release -p idicn --lib crypto::

echo "=== release-profile directory and cache tests (the own-PoP prune rests on f64 rounding)"
cargo test -q --release -p icn-core --lib dir::
cargo test -q --release -p icn-cache

# Every experiment runs through the one `icn` binary.
icn() { cargo run --release -q -p icn-bench -- "$@"; }
tmp="$(mktemp -d /tmp/icn-check.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT

echo "=== parallel and telemetry determinism cross-check (fig6 JOBS=1 vs JOBS=4, with and without --telemetry)"
# --telemetry attaches the span profiler, which is pure observation: it
# must not move a single digit of the printed figures. Its sidecar (the
# metrics and the span profile as one snapshot) must pass telemetry_check.
SCALE="${SCALE:-0.02}" JOBS=1 icn fig6 >"$tmp/fig6-1.txt" 2>/dev/null
SCALE="${SCALE:-0.02}" JOBS=4 icn fig6 >"$tmp/fig6-4.txt" 2>/dev/null
cmp "$tmp/fig6-1.txt" "$tmp/fig6-4.txt"
SCALE="${SCALE:-0.02}" JOBS=4 icn fig6 --telemetry "$tmp/sidecar.json" >"$tmp/fig6-tel.txt" 2>/dev/null
cmp "$tmp/fig6-4.txt" "$tmp/fig6-tel.txt"
icn telemetry_check "$tmp/sidecar.json" >/dev/null
echo "JOBS=1, JOBS=4 and JOBS=4 --telemetry stdout byte-identical; sidecar validates"

echo "=== committed results (icn all at its default SCALE vs results/)"
# results/*.txt were generated before the request kernel was unified and
# before the in-engine reference mode was replaced by the external oracle
# (crates/core/tests/oracle.rs), so this pins every later change to bytes it
# did not produce itself. Regenerate them with `icn all` only for a change
# that is meant to move the figures.
(unset SCALE; icn all 2>/dev/null)
git diff --exit-code -- results/
echo "all 14 results/ files byte-identical"

echo "=== live /metrics exposition (idICN pipeline scraped in-process)"
icn telemetry_check --live-metrics

echo "=== fault-injection smoke (failures JOBS=1 vs JOBS=4)"
SCALE="${SCALE:-0.02}" JOBS=1 icn failures >"$tmp/failures-1.txt" 2>/dev/null
SCALE="${SCALE:-0.02}" JOBS=4 icn failures >"$tmp/failures-4.txt" 2>/dev/null
cmp "$tmp/failures-1.txt" "$tmp/failures-4.txt"
echo "faulted sweep JOBS=1 and JOBS=4 stdout byte-identical"

echo "=== repo benchmark harness (benchmark/: unit tests + --smoke)"
# The harness is a workspace of its own (see BENCHMARK.json); its smoke
# run drives every workload at ~1/20 size with all built-in checks on
# (run == run_streamed, run_sharded 1 vs nproc workers, golden digests).
cargo test --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --smoke

echo "all checks passed"
