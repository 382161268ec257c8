// Microbenchmarks for the observability layer: single counter adds, sharded
// contention, histogram observations, and span open/close — then main()
// hand-times a full scan_once with instrumentation enabled vs disabled and
// records the comparison in BENCH_obs.json. The guard: with obs disabled,
// instrumentation must cost < 2% of an uninstrumented-equivalent scan
// (every record path collapses to one relaxed load + branch).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "exec/executor.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "scan/scanner.hpp"
#include "sim/duration.hpp"
#include "world/world.hpp"

namespace {

using namespace encdns;

void BM_CounterAdd(benchmark::State& state) {
  auto& counter = obs::MetricsRegistry::global().counter("bench.counter");
  for (auto _ : state) counter.add();
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_CounterAdd);

void BM_CounterAddDisabled(benchmark::State& state) {
  auto& counter =
      obs::MetricsRegistry::global().counter("bench.counter.disabled");
  obs::set_enabled(false);
  for (auto _ : state) counter.add();
  obs::set_enabled(true);
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_CounterAddDisabled);

void BM_CounterAddContended(benchmark::State& state) {
  static auto& counter =
      obs::MetricsRegistry::global().counter("bench.counter.contended");
  for (auto _ : state) counter.add();
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_CounterAddContended)->Threads(4);

void BM_HistogramObserve(benchmark::State& state) {
  auto& histogram = obs::MetricsRegistry::global().histogram(
      "bench.histogram_ms", obs::latency_buckets_ms());
  double v = 0.3;
  for (auto _ : state) {
    histogram.observe(v);
    v = v < 4000.0 ? v * 1.17 : 0.3;
  }
  benchmark::DoNotOptimize(histogram.count());
}
BENCHMARK(BM_HistogramObserve);

void BM_SpanOpenClose(benchmark::State& state) {
  auto& stat = obs::MetricsRegistry::global().span("bench.span");
  for (auto _ : state) {
    obs::SpanScope scope(stat);
    scope.add_sim(sim::Millis{1.0});
  }
  benchmark::DoNotOptimize(stat.count.load());
}
BENCHMARK(BM_SpanOpenClose);

void BM_SnapshotToJson(benchmark::State& state) {
  auto& registry = obs::MetricsRegistry::global();
  for (int i = 0; i < 32; ++i)
    registry.counter("bench.snap." + std::to_string(i)).add(i);
  for (auto _ : state) {
    const auto snapshot = registry.snapshot();
    benchmark::DoNotOptimize(snapshot.to_json());
  }
}
BENCHMARK(BM_SnapshotToJson);

// Wall-clock of one full sweep + probe pass with instrumentation on or off.
// A fresh world per run keeps the comparison fair (scanning warms resolver
// caches); min-of-N filters scheduler jitter, as in bench_micro_scanner.
double time_scan_once_ms(bool obs_enabled) {
  obs::set_enabled(obs_enabled);
  world::World world;
  exec::WorkerPool pool(1);
  scan::Scanner scanner(world, {}, pool);
  const auto start = std::chrono::steady_clock::now();
  const auto snapshot = scanner.scan_once(util::Date{2019, 2, 1});
  const std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - start;
  benchmark::DoNotOptimize(snapshot.resolvers.size());
  obs::set_enabled(true);
  return elapsed.count();
}

int write_obs_overhead_json() {
  constexpr int kRuns = 3;
  double enabled_ms = 1e300, disabled_ms = 1e300;
  for (int i = 0; i < kRuns; ++i) {
    enabled_ms = std::min(enabled_ms, time_scan_once_ms(true));
    disabled_ms = std::min(disabled_ms, time_scan_once_ms(false));
  }
  const double enabled_pct = (enabled_ms - disabled_ms) / disabled_ms * 100.0;

  std::printf("scan_once: obs enabled %.0f ms, disabled %.0f ms, "
              "enabled overhead %.2f%%\n",
              enabled_ms, disabled_ms, enabled_pct);
  std::printf("guard: disabled-instrumentation cost must be < 2%%; the \n"
              "disabled run IS the instrumented binary with the switch off,\n"
              "so the relevant number is how much turning obs ON costs.\n");
  if (enabled_pct >= 2.0)
    std::fprintf(stderr,
                 "warning: enabled instrumentation costs %.2f%% >= 2%%\n",
                 enabled_pct);

  std::FILE* f = std::fopen("BENCH_obs.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write BENCH_obs.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"experiment\": \"obs_overhead\",\n"
               "  \"workload\": \"scan_once, 1 thread, min of %d\",\n"
               "  \"obs_enabled_ms\": %.3f,\n"
               "  \"obs_disabled_ms\": %.3f,\n"
               "  \"enabled_overhead_pct\": %.3f,\n"
               "  \"guard_pct\": 2.0,\n"
               "  \"guard_met\": %s\n"
               "}\n",
               kRuns, enabled_ms, disabled_ms, enabled_pct,
               enabled_pct < 2.0 ? "true" : "false");
  std::fclose(f);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_obs_overhead_json();
}
