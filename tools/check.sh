#!/usr/bin/env bash
# Full verification sweep: plain, AddressSanitizer, and ThreadSanitizer
# builds, each followed by the complete ctest suite. The sanitizer passes
# exist for the fault/retry stack in particular — the injector's counters and
# the scanner's circuit breaker are exercised from many worker threads, and
# tsan is the tool that proves those accesses race-free.
#
# Usage: tools/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run_pass() {
  local name="$1" build_dir="$2" sanitize="$3"
  echo "=== ${name} build ==="
  cmake -B "${build_dir}" -S . -DENCDNS_SANITIZE="${sanitize}" >/dev/null
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "=== ${name} ctest ==="
  (cd "${build_dir}" && ctest --output-on-failure -j "${JOBS}")
}

run_golden() {
  # The golden ctest suite already diffs experiment-by-experiment; this step
  # additionally proves the checked-in corpus is exactly what the current
  # binary writes (no stale, missing, or hand-edited snapshot survives).
  echo "=== golden snapshot sync ==="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  ./build/tools/encdns_study --golden-dir "${tmp}" >/dev/null
  if ! diff -ru tests/golden/data "${tmp}"; then
    echo "golden corpus out of sync — run tools/regen_golden.sh" >&2
    return 1
  fi
  echo "tests/golden/data matches a fresh --golden-dir run."
}

run_cache_guard() {
  # bench_micro_cache replays the same Zipf mix against the retired
  # flush-on-full map and the sharded LRU cache; its exit status (and the
  # guard_met field of BENCH_cache.json) asserts the sharded cache sustains
  # a strictly higher steady-state hit rate. The micro loops are skipped —
  # only the comparison main() runs.
  echo "=== cache eviction guard ==="
  ./build/bench/bench_micro_cache --benchmark_filter=SKIP_ALL
  grep -q '"guard_met": true' BENCH_cache.json
  echo "sharded LRU beats flush-on-full (BENCH_cache.json)."
}

run_soak() {
  # The only coverage that executes StudyConfig::full() end to end: the
  # paper-scale suite is label-gated (plain ctest skips it) and env-gated
  # (the tests GTEST_SKIP without ENCDNS_SOAK), so this step turns both
  # keys at once.
  echo "=== paper-scale soak (ctest -L soak) ==="
  (cd build && ENCDNS_SOAK=1 ctest -L soak --output-on-failure)
}

run_throughput_guard() {
  # bench_macro_study re-runs the transports and every full-scale study
  # phase, then compares against the committed BENCH_throughput.json:
  # work-unit counts must match exactly (determinism), allocations/query
  # must stay within baseline*1.25+2, throughput above 0.25x baseline.
  echo "=== throughput guard ==="
  local tmp
  tmp="$(mktemp)"
  ./build/bench/bench_macro_study --scale full --out "${tmp}" \
    --guard BENCH_throughput.json
  grep -q '"guard_met": true' "${tmp}"
  rm -f "${tmp}"
  echo "throughput and allocation budgets hold vs BENCH_throughput.json."
}

run_chaos() {
  # The DESIGN.md §13 resume contract, proven the hard way: checkpointed runs
  # SIGKILLed at journal commits (via ENCDNS_CHECKPOINT_KILL_AFTER) —
  # overlapping phases and all — and resumed each time at a different thread
  # count. The survivors' golden corpus and stable obs JSON must match the
  # committed tests/golden/data byte for byte.
  echo "=== checkpoint kill/resume chaos ==="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN

  # chaos_leg NAME FINAL_THREADS KILL:THREADS...: one journal, killed at each
  # commit in turn, then resumed to completion. Kill counters are per
  # process, so each resume gets a fresh count; the points land in different
  # phases of the journal's commit sequence.
  chaos_leg() {
    local name="$1" final_threads="$2" step kill threads rc resume=""
    shift 2
    for step in "$@"; do
      kill="${step%%:*}" threads="${step##*:}" rc=0
      ENCDNS_THREADS="${threads}" ENCDNS_CHECKPOINT_KILL_AFTER="${kill}" \
        ./build/tools/encdns_study --checkpoint-dir "${tmp}/${name}.ckpt" \
        ${resume} --golden-dir "${tmp}/${name}" >/dev/null 2>&1 || rc=$?
      if [ "${rc}" -ne 137 ]; then
        echo "chaos: expected SIGKILL (137) at commit ${kill}, got ${rc}" >&2
        return 1
      fi
      resume=--resume
    done
    ENCDNS_THREADS="${final_threads}" ./build/tools/encdns_study \
      --checkpoint-dir "${tmp}/${name}.ckpt" --resume \
      --golden-dir "${tmp}/${name}" >/dev/null
    diff -r tests/golden/data "${tmp}/${name}"
  }
  chaos_leg triple 1 3:2 10:8 7:4
  chaos_leg single 8 5:2
  echo "kill+resume runs are byte-identical to tests/golden/data."

  # The golden corpus locks the fault-free run only, so the faults-on leg
  # compares against an uninterrupted faults-on run: every table (CSV) and
  # the stable obs JSON, after kills at two commits (2 and 8 threads) and a
  # resume at 1 thread. (--golden-dir would force faults off.)
  faults_run() {
    ENCDNS_FAULTS=canonical ENCDNS_THREADS="$1" ./build/tools/encdns_study \
      --csv-dir "${tmp}/$2" --obs-json "${tmp}/$2.obs.json" "${@:3}"
  }
  local step kill threads rc resume=""
  faults_run 4 faults-ref >/dev/null
  for step in 4:2 9:8; do
    kill="${step%%:*}" threads="${step##*:}" rc=0
    ENCDNS_CHECKPOINT_KILL_AFTER="${kill}" faults_run "${threads}" faults \
      --checkpoint-dir "${tmp}/faults.ckpt" ${resume} >/dev/null 2>&1 || rc=$?
    if [ "${rc}" -ne 137 ]; then
      echo "chaos (faults on): expected SIGKILL (137) at commit ${kill}, got ${rc}" >&2
      return 1
    fi
    resume=--resume
  done
  faults_run 1 faults --checkpoint-dir "${tmp}/faults.ckpt" --resume >/dev/null
  diff -r "${tmp}/faults-ref" "${tmp}/faults"
  cmp "${tmp}/faults-ref.obs.json" "${tmp}/faults.obs.json"
  echo "faults-on kill+resume matches an uninterrupted faults-on run."
}

run_dag_guard() {
  # DESIGN.md §15: the task-graph schedule must be invisible in the output.
  # Runs at 1, 2 and 8 threads must reproduce the committed golden corpus,
  # obs.json included, byte for byte. bench_macro_study --dag-guard then
  # holds the critical-path wall-clock floor against a sequential
  # accessor-forced run on multi-core machines.
  echo "=== task-graph schedule guard ==="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  local t
  for t in 1 2 8; do
    ENCDNS_THREADS="${t}" ./build/tools/encdns_study \
      --golden-dir "${tmp}/t${t}" >/dev/null
    diff -r tests/golden/data "${tmp}/t${t}"
  done
  ./build/bench/bench_macro_study --dag-guard
  echo "task-graph runs at 1/2/8 threads match tests/golden/data."
}

run_checkpoint_guard() {
  # Journaling must not perturb the phase and must keep at least a third of
  # the checkpoint-off throughput (quick scale is its worst case — see
  # bench_macro_study.cpp for the bound's rationale).
  echo "=== checkpoint overhead guard ==="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  ./build/bench/bench_macro_study --checkpoint-guard "${tmp}/ckpt"
  echo "checkpointed reachability stays within the overhead budget."
}

run_scan_guard() {
  # One full fault-free 853 sweep (DESIGN.md §14) against the committed
  # scan_sweep baseline in BENCH_throughput.json: addresses probed, open
  # count and open-set digest must match exactly (fault-free verdicts are
  # rng-independent), and probes/s must stay above 0.25x the baseline on a
  # multi-core host.
  echo "=== stateless scan engine guard ==="
  ./build/bench/bench_macro_study --scan-guard BENCH_throughput.json
  echo "sweep matches the committed baseline and holds its rate floor."
}

run_netflow_guard() {
  # The DESIGN.md §16 streaming trend pipeline: a full-scale multi-year run
  # must clear 100x the §5.2 sampled corpus under fixed memory (tracked
  # live state < 64 MiB, resident-set delta < 256 MiB), the HLL sketches
  # must track exact client counts within 3 sigma at validation scale, and
  # the flow count and flows/s are held against BENCH_netflow.json.
  echo "=== netflow trend pipeline guard ==="
  local tmp
  tmp="$(mktemp)"
  ./build/bench/bench_macro_study --netflow-guard BENCH_netflow.json \
    --out "${tmp}"
  grep -q '"guard_met": true' "${tmp}"
  rm -f "${tmp}"
  echo "trend pipeline holds its memory, accuracy and throughput floors."
}

run_pass "plain" build ""
run_golden
run_cache_guard
run_chaos
run_dag_guard
run_checkpoint_guard
run_scan_guard
run_netflow_guard
run_soak
run_throughput_guard
run_pass "asan" build-asan address
run_pass "tsan" build-tsan thread

echo "All check passes succeeded."
