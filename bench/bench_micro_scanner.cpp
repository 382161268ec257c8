// Microbenchmarks for the scanning machinery: the ZMap-style permutation,
// the scan-space index math, and SYN-probe throughput against the world.
//
// After the google-benchmark suite, main() hand-times a full scan_once at
// 1 vs 4 worker threads and records the comparison in BENCH_micro_scanner.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "scan/permutation.hpp"
#include "scan/scanner.hpp"
#include "scan/space.hpp"
#include "world/world.hpp"

namespace {

using namespace encdns;

void BM_PermutationNext(benchmark::State& state) {
  const scan::CyclicPermutation permutation(1 << 22, 7);
  auto walker = permutation.walk(0, permutation.steps());
  for (auto _ : state) {
    auto value = walker.next();
    if (!value) {
      walker = permutation.walk(0, permutation.steps());
      value = walker.next();
    }
    benchmark::DoNotOptimize(value);
  }
}
BENCHMARK(BM_PermutationNext);

void BM_NextPrime(benchmark::State& state) {
  std::uint64_t n = 4000000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scan::next_prime(n));
    n += 2;
  }
}
BENCHMARK(BM_NextPrime);

void BM_SpaceAtAndIndexOf(benchmark::State& state) {
  static const world::World world;
  scan::ScanSpace space(world.scan_prefixes());
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto addr = space.at(i % space.size());
    benchmark::DoNotOptimize(space.index_of(addr));
    i += 997;
  }
}
BENCHMARK(BM_SpaceAtAndIndexOf);

void BM_SynProbe(benchmark::State& state) {
  static const world::World world;
  static const auto origin = world.make_clean_vantage("US");
  scan::ScanSpace space(world.scan_prefixes());
  util::Rng rng(5);
  const util::Date date{2019, 2, 1};
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto addr = space.at((i * 2654435761ULL) % space.size());
    benchmark::DoNotOptimize(
        world.network().probe_tcp(origin.context, rng, addr, 853, date));
    ++i;
  }
}
BENCHMARK(BM_SynProbe);

// Wall-clock of one full sweep + probe pass at a pinned thread count. A fresh
// world per run keeps the comparison fair: scanning warms resolver caches, so
// reuse would hand the second run cheaper lookups.
double time_scan_once_ms(unsigned threads, bool fault_hooks_installed = true) {
  world::World world;
  if (!fault_hooks_installed) world.disable_fault_injection();
  scan::CampaignConfig config;
  config.thread_count = threads;
  scan::Scanner scanner(world, config);
  const auto start = std::chrono::steady_clock::now();
  const auto snapshot = scanner.scan_once(util::Date{2019, 2, 1});
  const std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - start;
  benchmark::DoNotOptimize(snapshot.resolvers.size());
  return elapsed.count();
}

// Cost of the fault-injection hooks themselves when no profile is active: the
// transport checks a disabled injector on every connect/exchange/probe, and
// that check must stay in the noise (< 2% on a full scan_once). Min-of-N
// timing on each side filters scheduler jitter.
double disabled_injector_overhead_pct() {
  constexpr int kRuns = 3;
  double hooked = 1e300, bypassed = 1e300;
  for (int i = 0; i < kRuns; ++i) {
    hooked = std::min(hooked, time_scan_once_ms(1, /*fault_hooks_installed=*/true));
    bypassed =
        std::min(bypassed, time_scan_once_ms(1, /*fault_hooks_installed=*/false));
  }
  return (hooked - bypassed) / bypassed * 100.0;
}

int write_scan_speedup_json() {
  constexpr unsigned kParallelThreads = 4;
  const double serial_ms = time_scan_once_ms(1);
  const double parallel_ms = time_scan_once_ms(kParallelThreads);
  const double speedup = serial_ms / parallel_ms;
  const double overhead_pct = disabled_injector_overhead_pct();
  const unsigned hardware = std::thread::hardware_concurrency();

  std::printf("scan_once: serial %.0f ms, %u threads %.0f ms, speedup %.2fx "
              "(%u hardware threads)\n",
              serial_ms, kParallelThreads, parallel_ms, speedup, hardware);
  std::printf("disabled fault injector overhead: %.2f%% (guard: < 2%%)\n",
              overhead_pct);
  if (overhead_pct >= 2.0)
    std::fprintf(stderr,
                 "warning: disabled fault injector costs %.2f%% >= 2%% guard\n",
                 overhead_pct);

  std::FILE* f = std::fopen("BENCH_micro_scanner.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write BENCH_micro_scanner.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"experiment\": \"micro_scanner\",\n"
               "  \"threads\": %u,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"serial_ms\": %.3f,\n"
               "  \"parallel_ms\": %.3f,\n"
               "  \"speedup\": %.3f,\n"
               "  \"disabled_fault_injector_overhead_pct\": %.3f\n"
               "}\n",
               kParallelThreads, hardware, serial_ms, parallel_ms, speedup,
               overhead_pct);
  std::fclose(f);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_scan_speedup_json();
}
