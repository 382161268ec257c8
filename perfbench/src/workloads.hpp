// The benchmark's workloads. Each call is one repetition in a fresh
// process; run.py repeats it, checks the outputs against reference.json and
// reports medians.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "result.hpp"
#include "trace.hpp"

namespace perfbench {

struct RepOptions {
  std::uint64_t seed = 2019;        // world seed
  std::uint64_t input_seed = 2019;  // query_loop names and client streams
  bool full = true;                 // paper scale vs the quick smoke scale
  unsigned threads = 4;             // worker pool size
  Tracer* tracer = nullptr;         // null = untraced
  std::string journal_dir;          // campaign only; empty = journal off
  /// Force the study's phases one by one through the public accessors, each
  /// in its own span, before the report; otherwise the report runs them on
  /// the task graph. Not with a journal: a journaled study must be driven
  /// through observability_report(), as encdns_study does.
  bool serial_phases = false;
  /// Measure set-up only and return: set-up time varies more between
  /// processes than within one, so run.py samples it in extra processes.
  bool setup_only = false;
};

/// `Study` → `observability_report()` → all experiment tables →
/// `evaluate_findings`, with the fault profile the process environment
/// selects and an optional checkpoint journal.
[[nodiscard]] Result run_study(const RepOptions& options);

/// One thread, one World, one clean US vantage: a closed loop of queries
/// rotating Do53/UDP, Do53/TCP, DoT and DoH-GET.
[[nodiscard]] Result run_query_loop(const RepOptions& options);

/// Process CPU time (user + sys, all threads) in nanoseconds.
[[nodiscard]] std::uint64_t cpu_ns();

/// Set-up is short next to the run, so it is repeated and its median kept:
/// builds `slot` from `args` kSetups times, keeping the last, and sets the
/// median build time as "setup_s" (process CPU seconds, which the host's
/// scheduling of other work does not inflate) and "setup_wall_s".
inline constexpr int kSetups = 5;
template <typename T, typename... Args>
void timed_setup(Result& result, std::optional<T>& slot, const Args&... args) {
  std::vector<double> cpu, wall;
  for (int i = 0; i < kSetups; ++i) {
    slot.reset();
    const std::uint64_t cpu_start = cpu_ns();
    const std::uint64_t wall_start = now_ns();
    slot.emplace(args...);
    wall.push_back(static_cast<double>(now_ns() - wall_start) * 1e-9);
    cpu.push_back(static_cast<double>(cpu_ns() - cpu_start) * 1e-9);
  }
  const auto median = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  result.set("setup_s", median(cpu));
  result.set("setup_wall_s", median(wall));
}

/// A counter's value in a metrics snapshot (0 when never registered).
[[nodiscard]] std::uint64_t counter(const encdns::obs::Snapshot& snapshot,
                                    const std::string& name);

/// Process CPU time (user + sys, all threads) and peak RSS in MiB.
[[nodiscard]] double cpu_seconds();
[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench
