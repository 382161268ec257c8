// Allocation-regression harness for the query hot path (DESIGN.md §11).
//
// This binary replaces global operator new with a counting allocator and
// pins per-query steady-state allocation budgets for the Do53/DoT/DoH
// clients, and the resolver cache's per-operation allocations and bytes per
// live entry (DESIGN.md §10). Two kinds of pins:
//
//  - Relative: the reworked build+encode+frame hot path must allocate at
//    least 5x less than the legacy make_query+encode+frame_stream path,
//    measured in the same process (self-calibrating across allocators). The
//    pre-change hot path cost 64.0 allocs/query; the scratch path costs 0.
//  - Absolute ceilings: full client query() budgets (which include the
//    simulated resolver service, response decode and outcome bookkeeping)
//    must not regress past the post-change measurements plus headroom.
//
// Pre-change baselines (seed commit, glibc, -O2): do53_udp 92.1, do53_tcp
// 96.1, dot 136.0, doh GET 197.0, build+encode+frame 64.0 allocs/query.
//
// Under ASan/TSan the allocator is intercepted and counts shift, so every
// test skips — tools/check.sh runs the plain pass first, which enforces
// the budgets.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

// ---------------------------------------------------------------------------
// Counting allocator: one atomic bump per operator new, plus a tally of the
// live heap bytes (malloc_usable_size, so allocator rounding is included).

namespace {
std::atomic<unsigned long long> g_alloc_count{0};
std::atomic<long long> g_live_bytes{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(static_cast<long long>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<long long>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

#include "cache/dns_cache.hpp"
#include "client/do53.hpp"
#include "client/doh.hpp"
#include "client/dot.hpp"
#include "dns/query.hpp"
#include "dns/wire.hpp"
#include "exec/arena.hpp"
#include "exec/executor.hpp"
#include "http/url.hpp"
#include "measure/reachability.hpp"
#include "proxy/proxy.hpp"
#include "scan/doh_prober.hpp"
#include "world/world.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ENCDNS_ALLOC_TEST_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ENCDNS_ALLOC_TEST_SANITIZED 1
#endif
#endif

namespace encdns {
namespace {

constexpr int kWarmup = 100;
constexpr int kMeasured = 400;

// Pre-change hot-path cost, pinned from the seed commit's measurement. The
// 5x acceptance bound below is asserted against this constant *and* against
// the legacy path measured in-process.
constexpr double kPreChangeHotPathAllocs = 64.0;

// Absolute steady-state ceilings: post-change measurements (47.1 / 47.1 /
// 56.1 / 111.0 in this harness) plus ~20% headroom for allocator/library
// drift and test-order effects on the shared world.
constexpr double kBudgetDo53Udp = 60.0;
constexpr double kBudgetDo53Tcp = 60.0;
constexpr double kBudgetDot = 68.0;
constexpr double kBudgetDoh = 135.0;

world::World& shared_world() {
  static world::World instance;
  return instance;
}

/// Allocations per iteration of `fn`, after a warmup that fills connection
/// pools, scratch capacities and arena buffers.
template <typename Fn>
double allocs_per_query(Fn&& fn) {
  for (int i = 0; i < kWarmup; ++i) fn(i);
  const auto before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = kWarmup; i < kWarmup + kMeasured; ++i) fn(i);
  const auto after = g_alloc_count.load(std::memory_order_relaxed);
  return static_cast<double>(after - before) / kMeasured;
}

std::vector<dns::Name> probe_names(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<dns::Name> names;
  names.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    names.push_back(shared_world().unique_probe_name(rng));
  return names;
}

class AllocBudgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef ENCDNS_ALLOC_TEST_SANITIZED
    GTEST_SKIP() << "counting allocator is not meaningful under sanitizers";
#endif
  }
};

TEST_F(AllocBudgetTest, HotPathAtLeastFiveTimesBelowPreChange) {
  const auto names = probe_names(kWarmup + kMeasured, 11);

  // Legacy path, as every client ran before the rework: build a fresh
  // message, pad via re-encode, encode to a fresh vector, frame via copy.
  // (No gtest macros inside measured loops: a failing expectation would
  // allocate and skew the count — tally and assert afterwards.)
  std::size_t bad = 0;
  const double legacy = allocs_per_query([&](int i) {
    dns::QueryOptions options;
    options.padding_block = 128;
    const auto query = dns::make_query(names[static_cast<std::size_t>(i)],
                                       dns::RrType::kA, 0x1234, options);
    const auto framed = dns::frame_stream(query.encode());
    if (framed.size() <= 2) ++bad;
  });

  // Reworked path: scratch message + arena lease + in-place framing.
  dns::Message scratch;
  const double reworked = allocs_per_query([&](int i) {
    dns::QueryOptions options;
    options.padding_block = 128;
    dns::build_query_into(scratch, names[static_cast<std::size_t>(i)],
                          dns::RrType::kA, 0x1234, options);
    exec::BufferLease lease;
    dns::WireWriter writer(*lease);
    const std::size_t prefix = writer.begin_stream_frame();
    scratch.encode_into(writer);
    writer.end_stream_frame(prefix);
    if (writer.size() <= 2) ++bad;
  });
  EXPECT_EQ(bad, 0u);

  RecordProperty("legacy_allocs_per_query", static_cast<int>(legacy * 10));
  RecordProperty("reworked_allocs_per_query", static_cast<int>(reworked * 10));
  EXPECT_GT(legacy, 1.0) << "counting allocator appears inert";
  // The acceptance bound: >= 5x below the pre-change count...
  EXPECT_LE(reworked * 5.0, kPreChangeHotPathAllocs);
  // ...and below whatever the legacy path costs on this toolchain.
  EXPECT_LE(reworked * 5.0, legacy);
  // In steady state the path is flat-out allocation-free.
  EXPECT_LE(reworked, 0.5);
}

TEST_F(AllocBudgetTest, Do53SteadyStateBudgets) {
  const auto names = probe_names(2 * (kWarmup + kMeasured), 12);
  world::Vantage vantage = shared_world().make_clean_vantage("US");
  const util::Date day{2019, 3, 10};

  client::Do53Client udp_client(shared_world().network(), vantage.context, 21);
  std::size_t failures = 0;
  const double udp = allocs_per_query([&](int i) {
    const auto outcome = udp_client.query_udp(
        world::addrs::kGooglePrimary, names[static_cast<std::size_t>(i)],
        dns::RrType::kA, day);
    if (outcome.status != client::QueryStatus::kOk) ++failures;
  });
  EXPECT_EQ(failures, 0u);
  EXPECT_LE(udp, kBudgetDo53Udp);

  client::Do53Client tcp_client(shared_world().network(), vantage.context, 22);
  std::size_t offset = kWarmup + kMeasured;
  const double tcp = allocs_per_query([&](int i) {
    const auto outcome = tcp_client.query_tcp(
        world::addrs::kCloudflarePrimary,
        names[offset + static_cast<std::size_t>(i)], dns::RrType::kA, day);
    if (outcome.status != client::QueryStatus::kOk) ++failures;
  });
  EXPECT_EQ(failures, 0u);
  EXPECT_LE(tcp, kBudgetDo53Tcp);
}

TEST_F(AllocBudgetTest, DotSteadyStateBudget) {
  const auto names = probe_names(kWarmup + kMeasured, 13);
  world::Vantage vantage = shared_world().make_clean_vantage("US");
  const util::Date day{2019, 3, 10};

  client::DotClient dot_client(shared_world().network(), vantage.context, 23);
  std::size_t failures = 0;
  const double dot = allocs_per_query([&](int i) {
    const auto outcome =
        dot_client.query(world::addrs::kCloudflarePrimary,
                         names[static_cast<std::size_t>(i)], dns::RrType::kA, day);
    if (outcome.status != client::QueryStatus::kOk) ++failures;
  });
  EXPECT_EQ(failures, 0u);
  EXPECT_LE(dot, kBudgetDot);
  // Also keep the pre-change count (136.0) unreachable: at least 2x under it.
  EXPECT_LE(dot * 2.0, 136.0);
}

TEST_F(AllocBudgetTest, DohSteadyStateBudget) {
  const auto names = probe_names(kWarmup + kMeasured, 14);
  world::Vantage vantage = shared_world().make_clean_vantage("US");
  const util::Date day{2019, 3, 10};

  client::DohClient doh_client(shared_world().network(), vantage.context, 24);
  const auto uri = http::UriTemplate::parse(
      "https://mozilla.cloudflare-dns.com/dns-query{?dns}");
  ASSERT_TRUE(uri.has_value());
  client::DohClient::Options options;
  options.bootstrap_resolver = world::addrs::kGooglePrimary;
  std::size_t failures = 0;
  const double doh = allocs_per_query([&](int i) {
    const auto outcome = doh_client.query(
        *uri, names[static_cast<std::size_t>(i)], dns::RrType::kA, day, options);
    if (outcome.status != client::QueryStatus::kOk) ++failures;
  });
  EXPECT_EQ(failures, 0u);
  EXPECT_LE(doh, kBudgetDoh);
  // Pre-change count (197.0): at least 1.5x under it.
  EXPECT_LE(doh * 1.5, 197.0);
}

// --- reused client + outcome (client/do53.hpp, DESIGN.md §12) ---------------
//
// The `query_*_into` contract: a reused client and a reused QueryOutcome look
// names up without fresh client-side allocations once warm. Two workloads
// per transport, each with its own client and outcome on a fresh World: a
// name the resolver already caches, and unique names, whose lookups miss the
// cache. What a miss costs is the simulated resolver's, identical for every
// transport: the new cache entry's buffer, the authoritative A record built
// for the unique name (3: the record, its name's labels), and the amortized
// growth of the cache's slab and index.

/// A lookup that neither answered nor timed out (the clean vantage's link
/// still drops the odd UDP datagram; a timeout is modelled loss).
bool failed(const client::QueryOutcome& outcome) {
  return outcome.status != client::QueryStatus::kOk &&
         outcome.status != client::QueryStatus::kTimeout;
}

struct IntoAllocs {
  double per_hit = 0.0;             // per repeated, cache-hit lookup
  double per_unique = 0.0;          // per unique-name lookup
  double entries_per_unique = 0.0;  // resolver-cache entries added per lookup
  std::size_t failures = 0;
};

template <typename Query>
IntoAllocs measure_into(world::World& world, Query&& query) {
  IntoAllocs result;
  client::QueryOutcome outcome;
  util::Rng rng(0x1470);
  const dns::Name repeated = world.unique_probe_name(rng);
  result.per_hit = allocs_per_query([&](int) {
    query(repeated, outcome);
    if (failed(outcome)) ++result.failures;
  });
  std::vector<dns::Name> names;
  for (int i = 0; i < kWarmup + kMeasured; ++i)
    names.push_back(world.unique_probe_name(rng));
  const auto entries_before = world.resolver_cache_tally().entries;
  result.per_unique = allocs_per_query([&](int i) {
    query(names[static_cast<std::size_t>(i)], outcome);
    if (failed(outcome)) ++result.failures;
  });
  result.entries_per_unique =
      static_cast<double>(world.resolver_cache_tally().entries -
                          entries_before) /
      (kWarmup + kMeasured);
  return result;
}

TEST_F(AllocBudgetTest, ReusedClientAndOutcomeAllocateOnlyForNewCacheEntries) {
  const util::Date day{2019, 3, 10};
  std::vector<std::pair<std::string, IntoAllocs>> runs;
  {
    world::World world;
    client::Do53Client client(world.network(),
                              world.make_clean_vantage("US").context, 31);
    runs.emplace_back("do53_udp", measure_into(world, [&](const dns::Name& name,
                                                          client::QueryOutcome& out) {
      client.query_udp_into(world::addrs::kGooglePrimary, name, dns::RrType::kA,
                            day, {}, out);
    }));
  }
  {
    world::World world;
    client::Do53Client client(world.network(),
                              world.make_clean_vantage("US").context, 32);
    runs.emplace_back("do53_tcp", measure_into(world, [&](const dns::Name& name,
                                                          client::QueryOutcome& out) {
      client.query_tcp_into(world::addrs::kCloudflarePrimary, name,
                            dns::RrType::kA, day, {}, out);
    }));
  }
  {
    world::World world;
    client::DotClient client(world.network(),
                             world.make_clean_vantage("US").context, 33);
    runs.emplace_back("dot", measure_into(world, [&](const dns::Name& name,
                                                     client::QueryOutcome& out) {
      client.query_into(world::addrs::kCloudflarePrimary, name, dns::RrType::kA,
                        day, {}, out);
    }));
  }
  {
    world::World world;
    client::DohClient client(world.network(),
                             world.make_clean_vantage("US").context, 34);
    const auto uri = http::UriTemplate::parse(
        "https://mozilla.cloudflare-dns.com/dns-query{?dns}");
    ASSERT_TRUE(uri.has_value());
    client::DohClient::Options options;
    options.bootstrap_resolver = world::addrs::kGooglePrimary;
    runs.emplace_back("doh_get", measure_into(world, [&](const dns::Name& name,
                                                         client::QueryOutcome& out) {
      client.query_into(*uri, name, dns::RrType::kA, day, options, out);
    }));
  }
  const double miss_cost = runs[0].second.per_unique - runs[0].second.per_hit;
  for (const auto& [transport, got] : runs) {
    SCOPED_TRACE(transport);
    EXPECT_EQ(got.failures, 0u);
    // A cache hit allocates nothing, on every transport.
    EXPECT_EQ(got.per_hit, 0.0);
    // Every unique name adds exactly one cache entry, and costs every
    // transport the same allocations beyond its hit cost.
    EXPECT_EQ(got.entries_per_unique, 1.0);
    EXPECT_EQ(got.per_unique - got.per_hit, miss_cost);
  }
  // Entry buffer + authoritative record, plus under half an allocation of
  // amortized slab/index growth per new entry.
  EXPECT_GE(miss_cost, 4.0);
  EXPECT_LT(miss_cost, 4.5);
}

// --- measurement-phase budgets (DESIGN.md §12) ------------------------------
//
// The per-client / per-check budgets below guard the arena discipline through
// the measurement fan-out, not just the wire codec: thread-resident client
// sets, slot-reusing query paths, pointer-shared certificate chains and
// epoch-gated bootstrap caches. Pre-change full-scale costs (seed commit,
// glibc, -O2, from BENCH_throughput.json): reachability_global 1175.28
// allocs/client, doh_discovery 536.34 allocs/url_check.

constexpr double kPreChangeReachabilityAllocs = 1175.28;
constexpr double kPreChangeDohDiscoveryAllocs = 536.34;

// Absolute ceilings, matching the bench_macro_study --guard phase ceilings.
constexpr double kBudgetReachabilityPerClient = 120.0;
constexpr double kBudgetDohDiscoveryPerCheck = 100.0;

TEST_F(AllocBudgetTest, ReachabilityPerClientBudget) {
  proxy::ProxyConfig platform_config;
  platform_config.name = "ProxyRack";
  platform_config.kind = proxy::PlatformKind::kGlobal;
  proxy::ProxyNetwork platform(shared_world(), platform_config, 0x91ACULL);

  exec::WorkerPool pool(1);  // inline workers: thread_local scratch persists
  measure::ReachabilityConfig config;
  config.seed = 17;

  // Warm run: fills the thread-resident ClientSet, outcome scratch, arena
  // leases and the resolver caches' steady-state capacities.
  config.client_count = 150;
  measure::ReachabilityTest warm(shared_world(), platform, config, pool);
  const auto warm_results = warm.run();
  ASSERT_EQ(warm_results.clients, 150u);

  constexpr std::size_t kClients = 400;
  config.client_count = kClients;
  measure::ReachabilityTest test(shared_world(), platform, config, pool);
  const auto before = g_alloc_count.load(std::memory_order_relaxed);
  const auto results = test.run();
  const auto after = g_alloc_count.load(std::memory_order_relaxed);
  ASSERT_EQ(results.clients, kClients);

  const double per_client =
      static_cast<double>(after - before) / static_cast<double>(kClients);
  RecordProperty("reachability_allocs_per_client",
                 static_cast<int>(per_client * 10));
  EXPECT_LE(per_client, kBudgetReachabilityPerClient);
  // Ratio pin: at least 5x below the pre-change per-client cost, so the
  // budget cannot be met by merely inflating the ceiling later.
  EXPECT_LE(per_client * 5.0, kPreChangeReachabilityAllocs);
}

TEST_F(AllocBudgetTest, DohDiscoveryPerCheckBudget) {
  const world::Vantage origin = shared_world().make_clean_vantage("US");
  const util::Date day{2019, 1, 20};
  scan::DohProber prober(shared_world(), origin, 77);
  const auto& urls = shared_world().url_dataset();

  // Warm run: the prober's client scratch, the URL prefilter and the probe
  // templates all reach steady state.
  const auto warm_discovery = prober.discover(urls, day);
  ASSERT_GT(warm_discovery.valid_urls, 0u);

  const auto before = g_alloc_count.load(std::memory_order_relaxed);
  const auto discovery = prober.discover(urls, day);
  const auto after = g_alloc_count.load(std::memory_order_relaxed);
  ASSERT_GT(discovery.valid_urls, 0u);

  // Same unit as the bench guard: phase allocations per *validated* URL
  // (the funnel's work unit; the 20k-URL prefilter sweep is included).
  const double per_check = static_cast<double>(after - before) /
                           static_cast<double>(discovery.valid_urls);
  RecordProperty("doh_discovery_allocs_per_check",
                 static_cast<int>(per_check * 10));
  EXPECT_LE(per_check, kBudgetDohDiscoveryPerCheck);
  EXPECT_LE(per_check * 4.0, kPreChangeDohDiscoveryAllocs);
}

// --- resolver cache (DESIGN.md §10) -----------------------------------------
//
// Entries are flat slab slots holding key + wire-form answer in one buffer.
// A warm hit decodes into the caller's records without allocating, an
// evicting store reuses the victim's slot and buffer, and a live entry costs
// a bounded number of heap bytes. The list+map layout this replaced held a
// one-record A answer in ~621 B (RSS probe: 112 B ResourceRecord,
// label-vector Name, list node, map node, two key copies).

/// Study-shaped cache traffic: probe-name keys and one-record A answers.
struct CacheWorkload {
  std::vector<std::string> keys;
  std::vector<cache::CachedAnswer> answers;
};

CacheWorkload cache_workload(std::size_t count, std::uint64_t seed) {
  CacheWorkload workload;
  workload.keys.reserve(count);
  workload.answers.reserve(count);
  for (const auto& name : probe_names(count, seed)) {
    workload.keys.push_back(name.canonical() + "/1");
    cache::CachedAnswer answer;
    answer.answers.push_back(
        dns::ResourceRecord::a(name, util::Ipv4(45, 90, 77, 99), 60));
    workload.answers.push_back(std::move(answer));
  }
  return workload;
}

// Post-change measurement (glibc, -O2): 0 allocations per warm hit, 0 per
// evicting store, 208 live heap bytes per entry.
constexpr double kBudgetCacheBytesPerEntry = 260.0;

TEST_F(AllocBudgetTest, CacheWarmHitAllocatesNothing) {
  const CacheWorkload workload = cache_workload(64, 15);
  cache::DnsCache cache;
  for (std::size_t i = 0; i < workload.keys.size(); ++i)
    ASSERT_TRUE(cache.store(workload.keys[i], workload.answers[i], 0));
  std::vector<dns::ResourceRecord> answers;
  std::size_t misses = 0;
  const double per_hit = allocs_per_query([&](int i) {
    const auto& key = workload.keys[static_cast<std::size_t>(i) % 64];
    if (!cache.lookup(key, 1, answers).has_value()) ++misses;
  });
  EXPECT_EQ(misses, 0u);
  EXPECT_EQ(per_hit, 0.0);
}

TEST_F(AllocBudgetTest, CacheEvictingStoreReusesVictimStorage) {
  cache::CacheConfig config;
  config.shards = 1;
  config.max_entries = 64;
  cache::DnsCache cache(config);
  // Equal-length probe names, so every victim's buffer fits its successor.
  const CacheWorkload workload = cache_workload(kWarmup + kMeasured + 64, 16);
  for (std::size_t i = 0; i < 64; ++i)
    ASSERT_TRUE(cache.store(workload.keys[i], workload.answers[i], 0));
  std::size_t rejected = 0;
  const double per_store = allocs_per_query([&](int i) {
    const std::size_t at = 64 + static_cast<std::size_t>(i);
    if (!cache.store(workload.keys[at], workload.answers[at], 0)) ++rejected;
  });
  EXPECT_EQ(rejected, 0u);
  EXPECT_EQ(cache.stats().evictions,
            static_cast<std::uint64_t>(kWarmup + kMeasured));
  EXPECT_EQ(per_store, 0.0);
}

TEST_F(AllocBudgetTest, CacheBytesPerLiveEntry) {
  constexpr std::size_t kEntries = 20000;
  const CacheWorkload workload = cache_workload(kEntries, 17);
  cache::DnsCache cache;  // study defaults: 16 shards, 200000 entries
  const long long before = g_live_bytes.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kEntries; ++i)
    (void)cache.store(workload.keys[i], workload.answers[i], 0);
  const long long after = g_live_bytes.load(std::memory_order_relaxed);
  ASSERT_EQ(cache.size(), kEntries);
  const double per_entry =
      static_cast<double>(after - before) / static_cast<double>(kEntries);
  RecordProperty("cache_bytes_per_entry", static_cast<int>(per_entry));
  std::printf("resolver cache: %.1f live heap bytes per entry\n", per_entry);
  EXPECT_LE(per_entry, kBudgetCacheBytesPerEntry);
}

TEST_F(AllocBudgetTest, ArenaLeasesReuseBuffersAfterWarmup) {
  exec::ScratchArena arena;
  {
    exec::BufferLease a(arena);
    exec::BufferLease b(arena);  // nested (reentrant) lease
    a->resize(512);
    b->resize(128);
  }
  EXPECT_EQ(arena.created(), 2u);
  EXPECT_EQ(arena.available(), 2u);
  const auto before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) {
    exec::BufferLease lease(arena);
    lease->assign(256, 0x5a);  // fits the warmed capacity
  }
  const auto after = g_alloc_count.load(std::memory_order_relaxed);
#ifndef ENCDNS_ALLOC_TEST_SANITIZED
  EXPECT_EQ(after, before) << "warmed leases must not allocate";
#endif
  EXPECT_EQ(arena.created(), 2u);
}

}  // namespace
}  // namespace encdns
