#!/usr/bin/env bash
# Offline CI gate for the reproduction.
#
#   scripts/ci.sh
#
# Steps: format check, release build (workspace root + exhibit binaries),
# tier-1 tests, workspace tests, a speculative-vs-cooperative scheduler
# byte-identity gate (plus a --host-threads 1 smoke), a 128-core scaling
# smoke plus a 64-core cross-scheduler identity gate, a parallel-harness
# smoke run of fig7 --quick whose output (including the machine-readable
# results/BENCH_fig7.json) is recorded under results/, a profile
# --quick smoke run whose text report and JSONL event dump are recorded
# and sanity-checked, a serve smoke gating the request-latency capture's
# byte-identity across schedulers, the lazy-subscription window
# regression gate, per-fallback-protocol cross-scheduler identity gates,
# a protocols-exhibit smoke over the full variant matrix, the parked-
# spinner exactness test, and a golden gate comparing fig7 --quick, a
# small serve run and the simulated columns of scaling --quick against
# checked-in simulated output (results/golden/).
#
# Everything runs with --offline: the workspace has no external
# dependencies by design, and CI must not depend on a registry.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy --workspace -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo build --release (workspace root)"
cargo build --release --offline

echo "== cargo build --release -p stagger-bench (exhibit binaries)"
cargo build --release --offline -p stagger-bench

echo "== cargo test -q (tier-1)"
cargo test -q --offline

echo "== cargo test -q --workspace"
cargo test -q --offline --workspace

echo "== interp_equivalence (bytecode vs legacy walker, quick matrix)"
# Runs as part of the workspace suite above too; the explicit invocation
# keeps the bit-identity gate visible in CI logs and fails fast on its own.
cargo test -q --offline -p stagger-bench --test interp_equivalence

echo "== scheduler byte-identity gate (speculative vs cooperative)"
# The speculative (Block-STM-style) core driver must be invisible: the
# full quick exhibit, minus the host-timing self-report lines, must match
# the cooperative driver byte for byte. Also covered at the artifact
# level by scheduler_equivalence and spec_stress; this gates the CLI path
# (flag parsing, config plumbing, report integration) end to end.
mkdir -p results
./target/release/fig7 --quick --scheduler cooperative \
  | grep -v '^harness:' > results/ci_fig7_coop.txt
./target/release/fig7 --quick --scheduler speculative --host-threads 2 \
  | grep -v '^harness:' > results/ci_fig7_spec.txt
cmp results/ci_fig7_coop.txt results/ci_fig7_spec.txt

echo "== --host-threads 1 smoke (speculative on a single-core host)"
# Degenerate worker count must still work (serial speculation) and still
# be byte-identical.
./target/release/fig7 --quick --scheduler speculative --host-threads 1 \
  | grep -v '^harness:' | cmp - results/ci_fig7_coop.txt

echo "== scaling 128-core smoke (quick, both modes)"
# The wide-bitset + indexed-scheduler path past the single-word CoreSet
# fast path (n_cores > 64) must stay runnable: list-hi and memcached in
# both modes at 128 cores.
./target/release/scaling --quick --cores 128 --jobs 2 \
  | tee results/ci_scaling_128.txt
test "$(awk '$3 == 128' results/ci_scaling_128.txt | wc -l)" -eq 4

echo "== scaling 64-core byte-identity gate (speculative vs cooperative)"
# At 64 cores, all simulated quantities must match across drivers byte
# for byte. Host-side columns (ns/inst, Minsts/s, and the
# cooperative-only sched counters) legitimately differ, so compare the
# simulated projection of the table: benchmark, mode, cores, sim_cycles,
# aborts/cm.
sim_cols() { grep -v '^harness:' | awk '{print $1, $2, $3, $4, $5}'; }
./target/release/scaling --quick --cores 64 --jobs 2 \
  | sim_cols > results/ci_scaling_coop.txt
./target/release/scaling --quick --cores 64 \
    --scheduler speculative --host-threads 2 --jobs 2 \
  | sim_cols > results/ci_scaling_spec.txt
cmp results/ci_scaling_coop.txt results/ci_scaling_spec.txt

echo "== fig7 --quick --jobs 2 --json (harness smoke)"
mkdir -p results
./target/release/fig7 --quick --jobs 2 --json | tee results/ci_fig7_quick.txt

echo "== fig7 --quick --jobs 1 --json (ns_per_inst regression tripwire)"
# Interpreter-performance tripwire: the median per-run ns_per_inst of the
# quick suite must stay within 1.25x of the recorded baseline (59.6, from
# the 1-CPU host; BENCH_harness.json fig7_quick.jobs_1 holds the current
# record and its host). Each run's host time spans machine construction
# through teardown, so a construction regression trips this too. Pinned to
# --jobs 1: oversubscribed workers inflate per-run wall time, not the
# interpreter. The 1.25 slack absorbs host-load noise; a genuine
# interpreter regression (losing the u-op or permission-cache fast paths)
# costs ~2x and trips this hard.
NS_BASELINE=59.6
NS_SLACK=1.25
./target/release/fig7 --quick --jobs 1 --json >/dev/null
NS_MEDIAN=$(grep -o '"ns_per_inst": [0-9.]*' results/BENCH_fig7.json \
  | awk '{print $2}' | sort -n | awk '{a[NR]=$1} END {print a[int((NR+1)/2)]}')
echo "median ns_per_inst: $NS_MEDIAN (baseline $NS_BASELINE, slack ${NS_SLACK}x)"
awk -v m="$NS_MEDIAN" -v b="$NS_BASELINE" -v s="$NS_SLACK" \
  'BEGIN { exit !(m <= b * s) }' || {
    echo "ci.sh: interpreter regression: median ns_per_inst $NS_MEDIAN > $NS_BASELINE * $NS_SLACK" >&2
    exit 1
  }

echo "== profile --quick --trace-out (observability smoke)"
./target/release/profile --quick --trace-out results/profile_events.jsonl \
  | tee results/profile_list-hi.txt
# The JSONL event dump must be non-empty, line-oriented JSON objects
# carrying the documented keys.
test -s results/profile_events.jsonl
head -n 1 results/profile_events.jsonl | grep -q '"clock"'
head -n 1 results/profile_events.jsonl | grep -q '"kind"'
if grep -qv '^{.*}$' results/profile_events.jsonl; then
    echo "ci.sh: malformed JSONL line in results/profile_events.jsonl" >&2
    exit 1
fi
grep -q 'list_find_prev' results/profile_list-hi.txt

echo "== serve smoke (latency capture byte-identity + JSONL sanity)"
# Small open-loop ramp, both modes: the per-request latency tables
# (derived from the observability event stream) must be byte-identical
# across the cooperative and speculative schedulers — latency capture is
# a pure observer over simulated quantities. The jsonl filenames differ
# between the runs, so the "serve: wrote" echo is filtered with the
# host-timing lines.
serve_sim() { grep -v -e '^harness:' -e '^serve: wrote '; }
./target/release/serve --quick --cores 8 --loads 24000,8000 \
    --jsonl results/ci_serve_coop.jsonl \
  | serve_sim > results/ci_serve_coop.txt
./target/release/serve --quick --cores 8 --loads 24000,8000 \
    --scheduler speculative --host-threads 2 \
    --jsonl results/ci_serve_spec.jsonl \
  | serve_sim > results/ci_serve_spec.txt
cmp results/ci_serve_coop.txt results/ci_serve_spec.txt
cmp results/ci_serve_coop.jsonl results/ci_serve_spec.jsonl
# The per-request JSONL export must be non-empty, line-oriented JSON
# objects carrying the documented keys.
test -s results/ci_serve_coop.jsonl
head -n 1 results/ci_serve_coop.jsonl | grep -q '"latency"'
head -n 1 results/ci_serve_coop.jsonl | grep -q '"dominant"'
if grep -qv '^{.*}$' results/ci_serve_coop.jsonl; then
    echo "ci.sh: malformed JSONL line in results/ci_serve_coop.jsonl" >&2
    exit 1
fi
grep -q '^SLO: ' results/ci_serve_coop.txt
rm -f results/ci_serve_coop.jsonl results/ci_serve_spec.jsonl

echo "== lazy-subscription window regression gate"
# The deliberately unsafe lazy-subscription policy must keep reproducing
# the Dice-et-al. torn-commit window deterministically, and the safe
# variant must keep closing it with a commit-time subscription abort.
# Runs as part of the workspace suite above too; the explicit invocation
# keeps the safety gate visible in CI logs.
cargo test -q --offline -p stagger-core --test lazy_subscription

echo "== fallback-protocol byte-identity gates (speculative vs cooperative)"
# The fallback policy is a *simulated* knob: each protocol must stay
# bit-identical across host schedulers through the CLI path too. Compare
# the simulated projection of the scaling table at 16 cores per policy.
for fb in hybrid-stm lazy-subscription-safe; do
  ./target/release/scaling --quick --cores 16 --fallback "$fb" --jobs 2 \
    | sim_cols > "results/ci_fb_${fb}_coop.txt"
  ./target/release/scaling --quick --cores 16 --fallback "$fb" \
      --scheduler speculative --host-threads 2 --jobs 2 \
    | sim_cols > "results/ci_fb_${fb}_spec.txt"
  cmp "results/ci_fb_${fb}_coop.txt" "results/ci_fb_${fb}_spec.txt"
done

echo "== protocols exhibit smoke (full variant matrix, quick)"
# All 80 cells of the protocol matrix must run clean — workload
# validation passes under every variant — and the new abort causes must
# actually engage: bounded-set rows report capacity aborts,
# lazy-subscription-safe rows report subscription aborts.
./target/release/protocols --quick --jobs 2 | tee results/ci_protocols.txt
test "$(grep -Ec '[0-9]\.[0-9]{2}x$' results/ci_protocols.txt)" -eq 80
awk '$3 == "bounded-set" { c += $8 } END { exit !(c > 0) }' \
  results/ci_protocols.txt
awk '$3 == "lazy-subscription-safe" { s += $9 } END { exit !(s > 0) }' \
  results/ci_protocols.txt

echo "== parked-spinner exactness (cooperative vs stepped spin polls)"
# The cooperative driver parks steady lock spinners and credits their
# polls arithmetically; the threaded and speculative drivers step every
# poll. Runs as part of the workspace suite above too; the explicit
# invocation keeps the bit-identity gate visible in CI logs.
cargo test -q --offline -p stagger-core --test spin_parking spin_parking_matches_step_path

echo "== golden simulated-output gate (results/golden/)"
# The coop-vs-spec comparisons above cannot catch a coherence-model bug
# that both drivers share (the line directory's presence sets feed the
# latency model of both). Pin the simulated output itself: the quick
# Fig. 7 table, a small serve run, and the simulated columns of the
# core-count ladder (16-256 contending cores, where parked spinners do
# the most), with the host-timing lines filtered, must match the
# checked-in copies byte for byte. Regenerate them only for an intended
# change to simulated results.
./target/release/fig7 --quick | grep -v '^harness:' \
  | cmp - results/golden/fig7_quick.txt
./target/release/serve --quick --cores 8 --loads 24000,8000 | serve_sim \
  | cmp - results/golden/serve_quick_8.txt
./target/release/scaling --quick --jobs 2 | sim_cols \
  | cmp - results/golden/scaling_quick.txt

echo "== sweep --quick --spec smoke (ablation-sweep cache smoke)"
# Cold run: the two-cell smoke sweep computes both cells and populates the
# content-hashed cell cache.
rm -rf results/sweeps-ci
./target/release/sweep --quick --spec smoke --dir results/sweeps-ci \
  | tee results/ci_sweep_smoke.txt
grep -q 'sweep smoke: 2 cells total, 0 cached, 2 computed, 0 remaining' \
  results/ci_sweep_smoke.txt
test "$(ls results/sweeps-ci/smoke/cells/*.cell | wc -l)" -eq 2
test -s results/sweeps-ci/smoke/smoke.json
test -s results/sweeps-ci/smoke/smoke.csv
# Warm re-run: every cell must come from the cache (100% hit, zero
# recomputation) and the emitted tables must be byte-identical.
cp results/sweeps-ci/smoke/smoke.json results/sweeps-ci/smoke.json.cold
cp results/sweeps-ci/smoke/smoke.csv results/sweeps-ci/smoke.csv.cold
./target/release/sweep --quick --spec smoke --dir results/sweeps-ci \
  | tee results/ci_sweep_smoke_rerun.txt
grep -q 'sweep smoke: 2 cells total, 2 cached, 0 computed, 0 remaining' \
  results/ci_sweep_smoke_rerun.txt
cmp results/sweeps-ci/smoke/smoke.json results/sweeps-ci/smoke.json.cold
cmp results/sweeps-ci/smoke/smoke.csv results/sweeps-ci/smoke.csv.cold

echo "== ci.sh: all gates passed"
