// CacheThreadCountInvariant: the resolver record caches behind a real
// reachability run must produce bit-identical tallies (hits, misses, stale
// answers, upstream faults, evictions, live entries) at 1, 2 and 8 worker
// threads — the same contract the exec/measure/scan layers already pin with
// their *ThreadCountInvariant suites (DESIGN.md §6/§7).
#include <gtest/gtest.h>

#include "exec/executor.hpp"
#include "fault/fault.hpp"
#include "measure/reachability.hpp"
#include "proxy/proxy.hpp"
#include "world/world.hpp"

namespace encdns::cache {
namespace {

using world::World;

[[nodiscard]] World::ResolverCacheTally run_reachability(
    unsigned threads, const world::WorldConfig& world_config) {
  // A fresh world per run: measurements warm the resolver caches, so the
  // tally is a function of (config, thread count) only.
  World world(world_config);
  proxy::ProxyNetwork platform(world, proxy::ProxyConfig{}, 27);
  measure::ReachabilityConfig config;
  config.client_count = 120;
  exec::WorkerPool pool(threads);
  measure::ReachabilityTest test(world, platform, config, pool);
  (void)test.run();
  return world.resolver_cache_tally();
}

void expect_tally_eq(const World::ResolverCacheTally& a,
                     const World::ResolverCacheTally& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.stale_served, b.stale_served);
  EXPECT_EQ(a.upstream_faults, b.upstream_faults);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.entries, b.entries);
}

TEST(CacheThreadCountInvariant, ReachabilityTalliesMatchAt128Threads) {
  const world::WorldConfig config;
  const auto serial = run_reachability(1, config);
  const auto two = run_reachability(2, config);
  const auto eight = run_reachability(8, config);

  // The run actually exercised the caches before we compare them.
  EXPECT_GT(serial.hits, 0u);
  EXPECT_GT(serial.misses, 0u);
  EXPECT_GT(serial.entries, 0u);

  expect_tally_eq(serial, two);
  expect_tally_eq(serial, eight);
}

// Same invariant with the canonical fault profile active: upstream-recursion
// faults (Channel::kRecursion) are drawn on per-request rng streams, so the
// fault and serve-stale tallies are schedule-independent too.
TEST(CacheThreadCountInvariant, FaultyReachabilityTalliesMatch) {
  world::WorldConfig config;
  config.fault_profile = fault::FaultProfile::canonical();
  // Crank the upstream failure rate so the channel demonstrably fires even
  // in this small run, and enable serve-stale so the recovery path runs.
  config.fault_profile.upstream_fail = 0.05;
  config.resolver_serve_stale = true;

  const auto serial = run_reachability(1, config);
  const auto two = run_reachability(2, config);
  const auto eight = run_reachability(8, config);

  EXPECT_GT(serial.upstream_faults, 0u);
  expect_tally_eq(serial, two);
  expect_tally_eq(serial, eight);
}

}  // namespace
}  // namespace encdns::cache
