#!/usr/bin/env bash
# Local CI gate: build, tests, formatting, lints. Run from anywhere;
# everything happens at the repository root. The build environment is
# offline, so every cargo invocation passes --offline.
#
# The workspace test suite runs twice — once pinned to a single worker
# and once at four workers — because the parallel hot paths (linalg,
# EM inference, batched DQN scoring) promise bit-identical results at
# every pool width; a regression that only reproduces under threading
# must fail CI, not just tests/determinism.rs. Each suite reports its
# wall-clock so thread-scaling regressions are visible in the log.
set -euo pipefail
cd "$(dirname "$0")/.."

# Run "$@" (from the second argument on) and report the wall-clock
# seconds for the labelled suite (first argument).
timed() {
  local label=$1
  shift
  local start end
  start=$(date +%s)
  "$@"
  end=$(date +%s)
  echo "-- ${label}: $((end - start))s"
}

echo "== cargo build --release =="
timed "build" cargo build --release --offline

echo "== cargo test (workspace, CROWDRL_THREADS=1) =="
timed "tests @1 thread" env CROWDRL_THREADS=1 cargo test -q --offline --workspace

echo "== cargo test (workspace, CROWDRL_THREADS=4) =="
timed "tests @4 threads" env CROWDRL_THREADS=4 cargo test -q --offline --workspace

echo "== cargo test (perfbench) =="
# The benchmark is a workspace of its own that drives the public API; the
# workspace suites above never build it, so a removed or renamed public
# item could break it unseen.
timed "perfbench tests" cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "== unreferenced public functions =="
# A `pub fn` whose name appears nowhere in the Rust sources but in its own
# definition is API nothing calls: delete it instead of keeping it
# compiling. Names are matched as whole identifiers across every source
# tree that can call into the workspace, the benchmark included.
dead_pub_fns() {
  local dirs=(crates src tests examples perfbench/src)
  local dead
  dead=$(awk 'NR == FNR { defs[$2] = $1; next } ($2 in defs) && $1 <= defs[$2] { print $2 }' \
    <(grep -rhoE --include='*.rs' 'pub(\([a-z]+\))? fn [A-Za-z_][A-Za-z0-9_]*' "${dirs[@]}" |
      sed -E 's/.* fn //' | sort | uniq -c) \
    <(grep -rhoE --include='*.rs' '[A-Za-z_][A-Za-z0-9_]*' "${dirs[@]}" | sort | uniq -c))
  if [[ -n "$dead" ]]; then
    echo "public functions referenced nowhere but their definition:" >&2
    echo "$dead" >&2
    return 1
  fi
  echo "every pub fn is referenced outside its definition"
}
timed "dead pub fn check" dead_pub_fns

echo "== traced run + crowdrl-trace smoke test =="
# The observability layer must produce a trace the analyzer can profile:
# run a small traced experiment and assert the phase profile is non-empty.
trace_smoke() {
  local tracefile
  tracefile=$(mktemp /tmp/crowdrl-trace.XXXXXX.jsonl)
  CROWDRL_TRACE="$tracefile" cargo run -q --release --offline --example trace_demo >/dev/null
  local profile
  profile=$(cargo run -q --release --offline -p crowdrl-bench --bin crowdrl-trace "$tracefile")
  echo "$profile" | head -n 6
  rm -f "$tracefile"
  if ! echo "$profile" | grep -q "workflow.run"; then
    echo "crowdrl-trace profile is missing workflow.run" >&2
    return 1
  fi
  if ! echo "$profile" | grep -q "serve.run"; then
    echo "crowdrl-trace profile is missing serve.run" >&2
    return 1
  fi
}
timed "trace smoke" trace_smoke

echo "== chaos demo + fault & recovery report smoke test =="
# The chaos layer end to end: a faulted, quarantined, checkpointed run
# is killed mid-flight, restored, and must match the uninterrupted run
# (the example asserts bit-identity itself); the analyzer must then
# surface the fault & recovery section from the trace.
chaos_smoke() {
  local tracefile
  tracefile=$(mktemp /tmp/crowdrl-chaos.XXXXXX.jsonl)
  CROWDRL_TRACE="$tracefile" cargo run -q --release --offline --example chaos_demo >/dev/null
  local report
  report=$(cargo run -q --release --offline -p crowdrl-bench --bin crowdrl-trace "$tracefile")
  rm -f "$tracefile"
  local needle
  for needle in "fault & recovery" "fault.injected.drift" "quarantine.entered" "checkpoint.write"; do
    if ! echo "$report" | grep -q "$needle"; then
      echo "crowdrl-trace report is missing '$needle'" >&2
      return 1
    fi
  done
  echo "$report" | sed -n '/fault & recovery/,/^$/p' | head -n 14
}
timed "chaos smoke" chaos_smoke

echo "== multi-project service smoke test =="
# The multi-tenant service end to end at a small scale: several projects
# over one shared pool, run in both execution modes (the demo asserts
# bit-identity itself); the analyzer must then surface the per-project
# phase profile grouped by tenant scope.
service_smoke() {
  local tracefile
  tracefile=$(mktemp /tmp/crowdrl-service.XXXXXX.jsonl)
  CROWDRL_TRACE="$tracefile" \
    SERVICE_DEMO_PROJECTS=3 SERVICE_DEMO_OBJECTS=60 SERVICE_DEMO_ANNOTATORS=40 \
    cargo run -q --release --offline --example service_demo >/dev/null
  local report
  report=$(cargo run -q --release --offline -p crowdrl-bench --bin crowdrl-trace "$tracefile")
  rm -f "$tracefile"
  local needle
  for needle in "per-project phase profile" "service.run" "project.2.serve.refresh"; do
    if ! echo "$report" | grep -q "$needle"; then
      echo "crowdrl-trace report is missing '$needle'" >&2
      return 1
    fi
  done
  echo "$report" | sed -n '/per-project phase profile/,/^$/p' | head -n 8
}
timed "service smoke" service_smoke

echo "== service chaos + checkpoint/restore smoke test =="
# Tenant-isolated fault containment end to end: a multi-project run
# with an injected shard panic, a project outage, and a shed admission
# is killed at a checkpoint and restored (the example asserts
# bit-identity itself); the analyzer must then surface the service-level
# fault & recovery counters from the trace.
service_chaos_smoke() {
  local tracefile
  tracefile=$(mktemp /tmp/crowdrl-service-chaos.XXXXXX.jsonl)
  CROWDRL_TRACE="$tracefile" \
    cargo run -q --release --offline --example service_chaos_demo >/dev/null
  local report
  report=$(cargo run -q --release --offline -p crowdrl-bench --bin crowdrl-trace "$tracefile")
  rm -f "$tracefile"
  local needle
  for needle in "fault & recovery" "service.checkpoint.write" \
    "service.project_failed" "admission.shed"; do
    if ! echo "$report" | grep -q "$needle"; then
      echo "crowdrl-trace report is missing '$needle'" >&2
      return 1
    fi
  done
  echo "$report" | sed -n '/fault & recovery/,/^$/p' | head -n 12
}
timed "service chaos smoke" service_chaos_smoke

echo "== decide pruning equivalence smoke test =="
# The decide-path pruning (first-layer rows per distinct annotator
# feature block, column deduplication and the panel walk's allowance
# stop) must be invisible end to end: the same small service round in
# pruned and exhaustive mode must print the identical outcome — labels,
# accuracies, rounds, budgets, sim time. Only the wall-clock figures
# (the thing pruning is allowed to change) are stripped before diffing.
# At 40 annotators about half the decide calls fall back to dense
# scoring; at 400 the grid and the allowance stop carry the comparison.
decide_smoke_at() {
  local annotators=$1 out_pruned out_exhaustive
  out_pruned=$(SERVICE_DEMO_PROJECTS=3 SERVICE_DEMO_OBJECTS=60 \
    SERVICE_DEMO_ANNOTATORS="$annotators" SERVICE_DEMO_DECIDE=pruned \
    cargo run -q --release --offline --example service_demo |
    sed -E 's/wall [0-9.]+s( \([0-9.]+x\))?//')
  out_exhaustive=$(SERVICE_DEMO_PROJECTS=3 SERVICE_DEMO_OBJECTS=60 \
    SERVICE_DEMO_ANNOTATORS="$annotators" SERVICE_DEMO_DECIDE=exhaustive \
    cargo run -q --release --offline --example service_demo |
    sed -E 's/wall [0-9.]+s( \([0-9.]+x\))?//')
  if [[ "$out_pruned" != "$out_exhaustive" ]]; then
    echo "pruned vs exhaustive service outputs diverged at $annotators annotators:" >&2
    diff <(echo "$out_exhaustive") <(echo "$out_pruned") >&2 || true
    return 1
  fi
  echo "decide equivalence at $annotators annotators: pruned == exhaustive service outcome ✓"
}
decide_smoke() {
  decide_smoke_at 40 && decide_smoke_at 400
}
timed "decide smoke" decide_smoke

echo "== crowdrl-trace --diff smoke test =="
# Two traced runs of the same deterministic workload must profile as
# equivalent: the diff gate (the tool CI uses to catch phase-time
# regressions between commits) must exit zero at a generous threshold.
# This also exercises the incremental engine's warm path end to end —
# the demo runs with the default (warm-started) config.
diff_smoke() {
  local trace_a trace_b
  trace_a=$(mktemp /tmp/crowdrl-diff-a.XXXXXX.jsonl)
  trace_b=$(mktemp /tmp/crowdrl-diff-b.XXXXXX.jsonl)
  CROWDRL_TRACE="$trace_a" cargo run -q --release --offline --example trace_demo >/dev/null
  CROWDRL_TRACE="$trace_b" cargo run -q --release --offline --example trace_demo >/dev/null
  cargo run -q --release --offline -p crowdrl-bench --bin crowdrl-trace -- \
    --diff "$trace_a" "$trace_b" --threshold 0.5 | tail -n 3
  rm -f "$trace_a" "$trace_b"
}
timed "diff smoke" diff_smoke

echo "== perf regression gate (serve events/s, SIMD matmul) =="
# Fail if fast-mode end-to-end events/s or SIMD matmul throughput has
# regressed >20% against the committed BENCH_serve.json /
# BENCH_hotpath.json. This container's wall clock is noisy (median
# swings of ±30% for an identical binary are routine), so the gate
# compares each fresh run's *best* figure against the committed
# *median* — best-of-run only fails to come within 20% of a typical
# committed run when the regression is real — and retries up to three
# bench runs before declaring one. The benches overwrite the committed
# JSONs in place; the gate restores them afterwards so CI never
# dirties the tree. DESIGN.md §14.5 documents the threshold choice.
perf_gate() {
  local saved_serve saved_hotpath
  saved_serve=$(mktemp /tmp/crowdrl-bench-serve.XXXXXX.json)
  saved_hotpath=$(mktemp /tmp/crowdrl-bench-hotpath.XXXXXX.json)
  cp BENCH_serve.json "$saved_serve"
  cp BENCH_hotpath.json "$saved_hotpath"

  # Committed (median-based) reference figures.
  local base_eps base_simd_ms
  base_eps=$(jq '[.end_to_end[] | select(.numeric == "fast")][0].events_per_sec' "$saved_serve")
  base_simd_ms=$(jq '.matmul.simd_ms' "$saved_hotpath")

  local attempt serve_ok=false simd_ok=false
  local best_eps=0 best_simd_ms=""
  for attempt in 1 2 3; do
    if [[ "$serve_ok" != true ]]; then
      cargo bench -q --offline -p crowdrl-bench --bench serve >/dev/null
      # Best throughput this run: events over the fastest cycle.
      local fresh_eps
      fresh_eps=$(jq '[.end_to_end[] | select(.numeric == "fast")][0]
                      | .events_processed / .min_ms * 1000' BENCH_serve.json)
      best_eps=$(jq -n --argjson a "$fresh_eps" --argjson b "$best_eps" \
        'if $a > $b then $a else $b end')
      if jq -en --argjson f "$best_eps" --argjson b "$base_eps" \
        '$f >= 0.8 * $b' >/dev/null; then
        serve_ok=true
      fi
    fi
    if [[ "$simd_ok" != true ]]; then
      cargo bench -q --offline -p crowdrl-bench --bench hotpath >/dev/null
      local fresh_simd_ms
      fresh_simd_ms=$(jq '.matmul.simd_ms' BENCH_hotpath.json)
      best_simd_ms=$(jq -n --argjson a "$fresh_simd_ms" \
        --argjson b "${best_simd_ms:-$fresh_simd_ms}" \
        'if $a < $b then $a else $b end')
      if jq -en --argjson f "$best_simd_ms" --argjson b "$base_simd_ms" \
        '$f <= 1.2 * $b' >/dev/null; then
        simd_ok=true
      fi
    fi
    if [[ "$serve_ok" == true && "$simd_ok" == true ]]; then break; fi
  done

  cp "$saved_serve" BENCH_serve.json
  cp "$saved_hotpath" BENCH_hotpath.json
  rm -f "$saved_serve" "$saved_hotpath"

  echo "serve fast events/s: best ${best_eps%.*} vs committed ${base_eps%.*} (floor: 80%)"
  echo "simd matmul: best ${best_simd_ms} ms vs committed ${base_simd_ms} ms (ceiling: 120%)"
  if [[ "$serve_ok" != true ]]; then
    echo "perf gate: fast-mode serve throughput regressed >20% vs committed BENCH_serve.json" >&2
    return 1
  fi
  if [[ "$simd_ok" != true ]]; then
    echo "perf gate: SIMD matmul regressed >20% vs committed BENCH_hotpath.json" >&2
    return 1
  fi
}
timed "perf gate" perf_gate

echo "== cargo fmt --check =="
timed "fmt" cargo fmt --check

echo "== cargo clippy -D warnings =="
timed "clippy" cargo clippy --workspace --all-targets --offline -- -D warnings

echo "CI OK"
