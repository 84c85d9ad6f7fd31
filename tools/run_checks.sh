#!/usr/bin/env bash
# Correctness gate for geonas (see DESIGN.md "Correctness tooling").
#
#   tools/run_checks.sh            full rig: kernel names, lint, bench-
#                                  gate dry run, release alloc audit,
#                                  ASan+UBSan ctest,
#                                  TSan ctest, thread-safety analyze
#                                  build, release build + the 11 paper
#                                  table/figure/ablation benches (each
#                                  exits 1 on a shape-check MISMATCH;
#                                  minutes, so not in --quick) +
#                                  clang-tidy
#   tools/run_checks.sh --quick    pre-merge gate: kernel names + lint +
#                                  bench-gate dry run + release alloc
#                                  audit + ASan+UBSan
#                                  tier-1 suite + TSan over the threaded
#                                  kernel layer (determinism + blocked
#                                  GEMM + vmath + kernel team + pool
#                                  shards + hpc stress + memoizer + serve
#                                  suites + concurrent simulator
#                                  campaigns + recurrent layer, trainer,
#                                  NAS driver, threaded PPO agents)
#                                  + a one-TU thread-safety smoke
#   tools/run_checks.sh --analyze  just the Clang Thread Safety Analysis
#                                  build (cmake --preset analyze with
#                                  -Werror=thread-safety)
#
# Each sanitizer flavor is a CMake preset (CMakePresets.json) building
# into build-<preset>/ so flavors never share object files. clang-tidy
# and the analyze stages are skipped with a notice when the binaries are
# not installed (the configs still gate environments that have them —
# the annotations themselves compile as no-ops everywhere); the summary
# lists every skipped stage as SKIPPED, never as passed.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo"

quick=0
analyze_only=0
jobs="$(nproc 2>/dev/null || echo 2)"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) quick=1 ;;
    --analyze) analyze_only=1 ;;
    --jobs) jobs="$2"; shift ;;
    -h|--help) sed -n '2,26p' "$0"; exit 0 ;;
    *) echo "run_checks: unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

failures=()
skipped=()

step() { printf '\n==== %s ====\n' "$*"; }

# Fails the stage for each alternative of a '^(A|B|...)' filter that
# matches no test: ctest -R accepts such an alternative, so a deleted or
# renamed suite would drop out of the slice silently.
check_filter() {
  local preset="$1" filter="$2" alt count
  local alts="${filter#^(}"
  alts="${alts%)}"
  local IFS='|'
  for alt in $alts; do
    count="$(ctest --preset "$preset" -N -R "^$alt" |
             sed -n 's/^Total Tests: //p')"
    if [[ "${count:-0}" -eq 0 ]]; then
      echo "ctest filter alternative '$alt' matches no test [$preset]"
      failures+=("ctest-filter:$preset:$alt")
    fi
  done
}

run_flavor() {
  local preset="$1" filter="${2-}"
  step "configure+build [$preset]"
  cmake --preset "$preset" >/dev/null
  cmake --build --preset "$preset" -j "$jobs"
  if [[ -n "$filter" ]]; then
    check_filter "$preset" "$filter"
  fi
  step "ctest [$preset]${filter:+ -R $filter}"
  if ! ctest --preset "$preset" -j "$jobs" ${filter:+-R "$filter"}; then
    failures+=("ctest:$preset")
  fi
}

# Full-tree Clang Thread Safety Analysis: every TU built with
# -Werror=thread-safety over the GEONAS_GUARDED_BY / GEONAS_REQUIRES
# annotations (src/core/thread_annotations.hpp). Needs clang++ — the
# attributes are Clang-only and expand to nothing elsewhere.
run_analyze() {
  step "thread-safety analysis [analyze]"
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "clang++ not installed; skipping thread-safety analysis" \
         "(preset: analyze, annotations compile as no-ops under GCC)"
    skipped+=("analyze (no clang++)")
    return 0
  fi
  if ! cmake --preset analyze >/dev/null ||
     ! cmake --build --preset analyze -j "$jobs"; then
    failures+=(analyze)
  fi
}

# One-TU analyze smoke for --quick: syntax-only, no configure, seconds
# not minutes. thread_pool.cpp pulls in PoolShard and the annotated
# Channel plus the core::Mutex wrapper itself, so a broken annotation in
# the concurrency core fails pre-merge.
run_analyze_smoke() {
  step "thread-safety smoke [one TU]"
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "clang++ not installed; skipping thread-safety smoke"
    skipped+=("analyze-smoke (no clang++)")
    return 0
  fi
  if ! clang++ -fsyntax-only -std=c++20 -Isrc \
       -Wthread-safety -Werror=thread-safety src/hpc/thread_pool.cpp; then
    failures+=(analyze-smoke)
  fi
}

# The paper's tables, figures and ablations from the release tree. Each
# prints its measured-vs-paper numbers and exits 1 when a shape check
# reads MISMATCH. Not in --quick: the set takes minutes on a 4-vCPU host
# (table2 trains for about 3).
run_paper_benches() {
  step "paper benches [release]"
  local name
  for name in table1_rmse_weekly table2_r2_comparison table3_scaling \
              fig3_search_trajectories fig4_best_architecture \
              fig5_posttrain_forecast fig6_field_forecast \
              fig7_point_probes fig8_high_performing fig9_variability \
              ablation_search; do
    echo "-- $name"
    if ! "build-release/bench/$name"; then
      failures+=("bench:$name")
    fi
  done
}

# Prints the skipped and failed stages; exits 1 on any failure. A rig
# with a skipped stage never reports "all checks passed".
summarize() {
  local rig="$1"
  step "summary"
  local stage
  for stage in "${skipped[@]}"; do echo "SKIPPED: $stage"; done
  if [[ ${#failures[@]} -gt 0 ]]; then
    echo "FAILED: ${failures[*]}"
    exit 1
  fi
  if [[ ${#skipped[@]} -gt 0 ]]; then
    echo "checks that ran passed ($rig rig); ${#skipped[@]} stage(s) skipped"
  else
    echo "all checks passed ($rig rig)"
  fi
  exit 0
}

if [[ $analyze_only -eq 1 ]]; then
  run_analyze
  summarize analyze
fi

# Header: the vmath backend and GEMM micro-kernels this host's CPU
# picks, as every bench capture stamps them, read from a release bench
# binary. The release tree also serves the alloc audit below.
step "kernels [release]"
cmake --preset release >/dev/null
cmake --build --preset release -j "$jobs" --target alloc_audit_tests \
  micro_substrate
if ! build-release/bench/micro_substrate \
     --benchmark_filter='^BM_ObsDisabledSite$' --benchmark_min_time=0.01 \
     2>&1 | grep -E '^geonas_(vmath_backend|gemm_kernel): '; then
  failures+=(kernels)
fi

step "geonas_lint"
if ! python3 tools/geonas_lint.py; then
  failures+=(geonas_lint)
fi

# Bench-gate tooling self-check: a malformed committed baseline or a
# bench_diff comparator regression (including the added/removed
# classification) fails here, without a release bench run.
step "bench_diff --dry-run"
for baseline in BENCH_kernels.json BENCH_serve.json; do
  if ! python3 tools/bench_diff.py --dry-run "$baseline"; then
    failures+=("bench_diff:$baseline")
  fi
done

# The zero-allocation audit needs the counting operator new, which the
# sanitizer presets compile out — run it from the release tree.
step "alloc audit [release]"
if ! build-release/tests/alloc_audit_tests; then
  failures+=(alloc_audit)
fi

run_flavor asan

if [[ $quick -eq 1 ]]; then
  # Pre-merge TSan slice: the suites that exercise the kernel pool from
  # multiple threads (vmath spans, GEMM splits, recurrent fused kernels,
  # stress rigs — ParallelFor* covers the kernel team's job slot, worker
  # flags and completion count, including concurrent dispatchers and the
  # wake-up after parking), PoolShard* the shards' threads and private
  # teams (a body's dispatches, join and a throwing body's join), the
  # observability registry, which is written by
  # kernel-pool and driver worker threads while an exporter reads it —
  # races there corrupt every NAS reward / telemetry report downstream —
  # and the memoizer stress suite (concurrent evaluate vs checkpoint
  # streaming over one cache mutex). Serve* covers the inference engine's
  # MPSC queue/stream handoff (multi-producer backpressure + drain);
  # BlockedGemm splits raw-B products across team workers, which run the
  # same stripe function as the packed panels; Prepack* covers
  # packed-panel consumption from pool workers (the panels are shared
  # read-only across GEMM worker threads); Net* runs
  # the master poll loop against concurrent in-process worker threads;
  # SST* covers snapshot generation, whose pool workers read the caches
  # the calling thread grew, and Comparators* the HYCOM field, which reads
  # its truth through that split; ClusterSimStress runs concurrent
  # simulate_async campaigns on one shared evaluator. LSTM,
  # GraphNetwork and Trainer cover the recurrent layer's batch-slice and
  # weight-row chunks, which write disjoint rows of shared workspaces
  # (gates, h/c sequences, dZ/dH/dC, gradient rows); NasDriver covers the
  # campaign loop on its worker shards, including a worker's exception
  # surfacing after every worker joined;
  # PPOStress runs PPO agents that sample and compute gradients
  # concurrently against one shared evaluator between per-round joins.
  run_flavor tsan \
    '^(Determinism|BlockedGemm|Vmath|ParallelFor|PoolShard|Obs|Memoizer|Serve|Prepack|Net|SST|Comparators|ClusterSimStress|PPOStress|LSTM|GraphNetwork|Trainer|NasDriver)'
  run_analyze_smoke
else
  run_flavor tsan
  run_analyze

  step "configure+build [release] (paper benches, clang-tidy compilation database)"
  cmake --preset release >/dev/null
  cmake --build --preset release -j "$jobs"
  run_paper_benches

  step "clang-tidy"
  if command -v clang-tidy >/dev/null 2>&1; then
    mapfile -t tidy_sources < <(find src -name '*.cpp' | sort)
    if command -v run-clang-tidy >/dev/null 2>&1; then
      if ! run-clang-tidy -quiet -p build-release "${tidy_sources[@]}"; then
        failures+=(clang-tidy)
      fi
    else
      tidy_rc=0
      for f in "${tidy_sources[@]}"; do
        clang-tidy --quiet -p build-release "$f" || tidy_rc=1
      done
      [[ $tidy_rc -eq 0 ]] || failures+=(clang-tidy)
    fi
  else
    echo "clang-tidy not installed; skipping static analysis" \
         "(config: .clang-tidy)"
    skipped+=("clang-tidy (not installed)")
  fi
fi

summarize "$([[ $quick -eq 1 ]] && echo quick || echo full)"
