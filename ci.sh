#!/usr/bin/env bash
# Local CI gate: build, full test suite, lints, formatting.
# Run from the repo root; fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"
root=$PWD

repro() {
    cargo run --release --manifest-path "$root/Cargo.toml" -p pmoctree-bench --bin repro -- "$@"
}

# Worker-count determinism: run `repro ARGS...` under 1 and then 4 pool
# workers and fail with MESSAGE unless every document in DOCS (a
# space-separated list) is byte-identical between the two runs. Only
# wall-clock time may depend on the worker count. Each document is moved
# aside before the 4-worker run, so one that run does not write fails the
# diff. BENCH_wear.json is copied back: drivers merge their entry into
# it, so the 4-worker run must start from the earlier drivers' entries
# (repro exits non-zero if it cannot write a document).
#   same_under_1_and_4_workers MESSAGE DOCS ARGS...
same_under_1_and_4_workers() {
    local msg=$1 docs=$2 doc
    shift 2
    repro "$@" --workers 1
    for doc in $docs; do
        mv "$doc" "${doc%.json}.w1.json"
        if [ "$doc" = BENCH_wear.json ]; then
            cp BENCH_wear.w1.json BENCH_wear.json
        fi
    done
    repro "$@" --workers 4
    for doc in $docs; do
        if ! diff -q "${doc%.json}.w1.json" "$doc"; then
            echo "$msg" >&2
            exit 1
        fi
    done
    for doc in $docs; do
        rm -f "${doc%.json}.w1.json"
    done
}

cargo build --release
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
# SIMD-fallback gate: the Morton suite (including the SIMD==scalar
# property tests) must pass with the batch kernels pinned to the scalar
# path, proving the dispatch override and the fallback itself.
PMOCTREE_MORTON_FORCE_SCALAR=1 cargo test -p pmoctree-morton -q
# Crash-consistency gate: every crash opportunity x every injection mode
# must recover to exactly V_i or V_{i-1} (exits non-zero on violation).
repro crash-sweep --smoke
# Cluster worker-pool gate: cluster reports and traces must be
# byte-identical whether 1, 2 or 4 workers run the ranks.
cargo test --release -p pmoctree-cluster --test thread_invariance -q
# Orthogonal-persistence gate: runs crashed at sampled FailPlan
# opportunities (including rt::commit) must resume to a report — and
# hence a BENCH JSON — byte-identical to the uncrashed run, and
# whole-application PM restart must beat the fsync-charged
# file-checkpoint baseline >=10x (exits non-zero on either failure).
repro recovery-rt --smoke
# Observability gate: a traced smoke workload must export a Chrome trace
# that the independent JSON-level validator accepts.
repro droplet --quick --trace trace_smoke.json
repro trace-check trace_smoke.json
rm -f trace_smoke.json
# Results-integrity gate: `repro all` stdout is byte-deterministic and
# repro_results.txt is its committed copy. Any drift fails; a change that
# moves a number regenerates the file and explains the diff in CHANGES.md.
# Runs in a scratch directory so its BENCH documents stay out of the
# shape gate below.
golden=$(mktemp -d)
(cd "$golden" && repro all > repro_all.txt)
if ! diff -u repro_results.txt "$golden/repro_all.txt"; then
    echo "repro all output diverged from repro_results.txt" >&2
    exit 1
fi
rm -rf "$golden"
# Worker-pool determinism gate: the cluster smoke must emit byte-identical
# JSON whether the pool runs 1 worker or 4 (only wall-clock may differ).
same_under_1_and_4_workers "cluster smoke diverged between 1 and 4 workers" \
    BENCH_cluster_smoke.json cluster-smoke
# Multi-tenant service gate: the Zipf-skewed service benchmark (>=100
# tenants, pinned-snapshot isolation checks, quota rejections) must pass
# its internal gates and emit byte-identical JSON under 1 and 4 workers
# (the driver is single-threaded over the virtual clock by design).
same_under_1_and_4_workers "service benchmark diverged between 1 and 4 workers" \
    BENCH_service.json service --smoke
# Flight-recorder gate: the blackbox run (recorder on, recovered from the
# arena's own media, overhead measured against a recorder-off run) must
# pass its internal gates — well-formed dump, <=5% virtual-clock
# inflation — and emit byte-identical JSON under 1 and 4 workers.
same_under_1_and_4_workers "blackbox run diverged between 1 and 4 workers" \
    BENCH_blackbox.json blackbox --quick
# Wear-telemetry gate: after the write_fraction and service runs above,
# BENCH_wear.json must hold complete per-region/per-phase attribution
# for BOTH drivers (the shape is checked by trace-check below).
repro write_fraction --quick
for d in droplet service; do
    if ! grep -q "\"driver\":\"$d\"" BENCH_wear.json; then
        echo "BENCH_wear.json is missing the $d driver" >&2
        exit 1
    fi
done
# Log-structured wear-leveling gate: the wear-level driver must pass its
# internal gates (>=1 wear-GC relocation, pinned snapshots byte-identical
# under relocation, bytes/commit and flatness against recorded baselines)
# and both its documents — BENCH_wear_level.json and the merged
# BENCH_wear.json — must be byte-identical under 1 and 4 workers.
same_under_1_and_4_workers "wear-level benchmark diverged between 1 and 4 workers" \
    "BENCH_wear_level.json BENCH_wear.json" wear-level --smoke
if ! grep -q "\"driver\":\"wear-level\"" BENCH_wear.json; then
    echo "BENCH_wear.json is missing the wear-level driver" >&2
    exit 1
fi
# BENCH-document shape gate: trace-check validates every emitted
# BENCH_*.json (wear docs need all four regions + the 16-bucket
# histogram; blackbox needs a well-formed recovered dump).
for f in BENCH_*.json; do
    repro trace-check "$f"
done
