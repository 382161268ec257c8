#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>

#include "exec/cancel.hpp"
#include "fault/fault.hpp"
#include "scan/doh_prober.hpp"
#include "scan/doh_scan.hpp"
#include "scan/dot_prober.hpp"
#include "scan/engine.hpp"
#include "scan/permutation.hpp"
#include "scan/scanner.hpp"
#include "scan/space.hpp"
#include "util/bytes.hpp"
#include "util/stats.hpp"
#include "world/world.hpp"

namespace encdns::scan {
namespace {

const util::Date kFeb{2019, 2, 1};

world::World& shared_world() {
  static world::World world;
  return world;
}

TEST(Primes, MillerRabin) {
  EXPECT_FALSE(is_prime(0));
  EXPECT_FALSE(is_prime(1));
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(4));
  EXPECT_TRUE(is_prime(101));
  EXPECT_FALSE(is_prime(1000000));
  EXPECT_TRUE(is_prime(1000003));
  EXPECT_TRUE(is_prime(2147483647));        // Mersenne prime 2^31-1
  EXPECT_FALSE(is_prime(3215031751ULL));    // strong pseudoprime to 2,3,5,7
  EXPECT_TRUE(is_prime(67280421310721ULL)); // large prime
}

TEST(Primes, NextPrime) {
  EXPECT_EQ(next_prime(10), 11u);
  EXPECT_EQ(next_prime(11), 11u);
  EXPECT_EQ(next_prime(4194304), 4194319u);
}

TEST(Primes, Factorization) {
  EXPECT_EQ(prime_factors(12), (std::vector<std::uint64_t>{2, 3}));
  EXPECT_EQ(prime_factors(97), (std::vector<std::uint64_t>{97}));
  EXPECT_EQ(prime_factors(1000002), (std::vector<std::uint64_t>{2, 3, 166667}));
}

TEST(Primes, PowMod) {
  EXPECT_EQ(pow_mod(2, 10, 1000), 24u);
  EXPECT_EQ(pow_mod(3, 0, 7), 1u);
  EXPECT_EQ(pow_mod(123456789, 987654321, 1000000007), 652541198u);
}

class PermutationFullCycle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PermutationFullCycle, VisitsEveryIndexOnce) {
  const std::uint64_t n = GetParam();
  const CyclicPermutation permutation(n, 0xFEED + n);
  auto walker = permutation.walk(0, permutation.steps());
  std::vector<bool> seen(n, false);
  std::uint64_t count = 0;
  while (const auto index = walker.next()) {
    ASSERT_LT(*index, n);
    ASSERT_FALSE(seen[*index]) << "revisited " << *index;
    seen[*index] = true;
    ++count;
  }
  EXPECT_EQ(count, n);
  EXPECT_FALSE(walker.next().has_value());  // stays exhausted
}

INSTANTIATE_TEST_SUITE_P(Sizes, PermutationFullCycle,
                         ::testing::Values(1, 2, 3, 10, 97, 100, 1021, 4096, 65536));

TEST(Permutation, OrderLooksScattered) {
  const CyclicPermutation permutation(10000, 42);
  auto walker = permutation.walk(0, permutation.steps());
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 100; ++i) first.push_back(*walker.next());
  // Consecutive outputs should not be sequential addresses.
  int adjacent = 0;
  for (std::size_t i = 1; i < first.size(); ++i)
    if (first[i] == first[i - 1] + 1) ++adjacent;
  EXPECT_LT(adjacent, 3);
}

// A fresh walker over the same step range restarts the same order.
TEST(Permutation, ResetRestartsSameOrder) {
  const CyclicPermutation permutation(1000, 7);
  std::vector<std::uint64_t> a, b;
  auto first = permutation.walk(0, permutation.steps());
  for (int i = 0; i < 50; ++i) a.push_back(*first.next());
  auto again = permutation.walk(0, permutation.steps());
  for (int i = 0; i < 50; ++i) b.push_back(*again.next());
  EXPECT_EQ(a, b);
}

TEST(Permutation, DifferentSeedsDifferentOrder) {
  const CyclicPermutation a(100000, 1), b(100000, 2);
  auto walk_a = a.walk(0, a.steps());
  auto walk_b = b.walk(0, b.steps());
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (*walk_a.next() == *walk_b.next()) ++same;
  EXPECT_LT(same, 5);
}

// The walker's step is MulMod, Shoup's division-free product; it must agree
// with the plain 128-bit (x * g) % p on every input it can meet: the tiny
// groups of degenerate spaces, primes just above 2^32 (a whole IPv4 space),
// and primes at the 2^63 limit, at the edges of [0, p) and in between.
TEST(Permutation, MulModMatchesWideRemainder) {
  std::vector<std::uint64_t> primes = {2, 3, 5, 7, 11, 13, 97, 65537};
  for (std::uint64_t p = next_prime((1ULL << 32) + 1); primes.size() < 12;
       p = next_prime(p + 1))
    primes.push_back(p);
  std::uint64_t below_limit = (1ULL << 63) - 1;
  while (!is_prime(below_limit)) --below_limit;
  primes.push_back(below_limit);
  util::Rng rng(0x5405);
  for (const std::uint64_t p : primes) {
    std::vector<std::uint64_t> values = {0, 1, p / 2, p - 2, p - 1};
    for (int i = 0; i < 200; ++i) values.push_back(rng.below(p));
    for (const std::uint64_t g : values) {
      const MulMod step(g % p, p);
      for (const std::uint64_t x : values) {
        const auto want = static_cast<std::uint64_t>(
            static_cast<__uint128_t>(x % p) * (g % p) % p);
        ASSERT_EQ(step(x % p), want) << "x=" << x << " g=" << g << " p=" << p;
      }
    }
  }
}

TEST(ScanSpace, IndexAddressBijection) {
  ScanSpace space({*util::Cidr::parse("10.0.0.0/24"),
                   *util::Cidr::parse("192.168.0.0/30")});
  EXPECT_EQ(space.size(), 260u);
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    EXPECT_EQ(*space.index_of(space.at(i)), i);
  }
  EXPECT_FALSE(space.index_of(util::Ipv4{10, 0, 1, 0}).has_value());
  EXPECT_TRUE(space.contains(util::Ipv4{192, 168, 0, 3}));
  EXPECT_FALSE(space.contains(util::Ipv4{192, 168, 0, 4}));
  EXPECT_THROW((void)space.at(space.size()), std::out_of_range);
}

TEST(ScanSpace, DeduplicatesAndSorts) {
  ScanSpace space({*util::Cidr::parse("10.1.0.0/24"),
                   *util::Cidr::parse("10.0.0.0/24"),
                   *util::Cidr::parse("10.1.0.0/24")});
  EXPECT_EQ(space.prefixes().size(), 2u);
  EXPECT_EQ(space.size(), 512u);
  EXPECT_EQ(space.at(0), util::Ipv4(10, 0, 0, 0));
}

TEST(ProviderKey, SldGroupingAndRawCn) {
  EXPECT_EQ(provider_key("dns.quad9.net"), "quad9.net");
  EXPECT_EQ(provider_key("cloudflare-dns.com"), "cloudflare-dns.com");
  EXPECT_EQ(provider_key("a.b.c.example.org"), "example.org");
  // Non-domain CNs (FortiGate factory certs) group by raw CN.
  EXPECT_EQ(provider_key("FortiGate"), "FortiGate");
}

TEST(DotProber, IdentifiesRealResolverAndBackgroundHost) {
  world::World& world = shared_world();
  DotProber prober(world, world.make_clean_vantage("US"), 3);
  const auto hit = prober.probe(world::addrs::kCloudflarePrimary, kFeb);
  EXPECT_TRUE(hit.port_open);
  EXPECT_TRUE(hit.tls_ok);
  EXPECT_TRUE(hit.dot_ok);
  EXPECT_TRUE(hit.answer_correct);
  EXPECT_EQ(hit.cert_status, tls::CertStatus::kValid);
  EXPECT_EQ(hit.chain.leaf_cn(), "cloudflare-dns.com");

  // Find a background host (port open, no DoT).
  util::Rng rng(4);
  const auto& prefixes = world.scan_prefixes();
  util::Ipv4 background{0};
  for (int i = 0; i < 100000 && background.value() == 0; ++i) {
    const auto& prefix = prefixes[rng.below(prefixes.size())];
    const util::Ipv4 addr = prefix.at(rng.below(prefix.size()));
    if (world.background_open_853(addr, kFeb) &&
        world.network().route(addr, world.make_clean_vantage("US").context.location,
                              kFeb) == nullptr)
      background = addr;
  }
  ASSERT_NE(background.value(), 0u);
  const auto miss = prober.probe(background, kFeb);
  EXPECT_TRUE(miss.port_open);
  EXPECT_FALSE(miss.dot_ok);
}

TEST(DotProber, FlagsFixedAnswerResolvers) {
  world::World& world = shared_world();
  DotProber prober(world, world.make_clean_vantage("US"), 5);
  const util::Ipv4 dnsfilter{103, 247, 37, 37};
  const auto result = prober.probe(dnsfilter, kFeb);
  ASSERT_TRUE(result.dot_ok);
  EXPECT_FALSE(result.answer_correct);  // fixed answer != ground truth
}

TEST(DohProber, FindsAllSeventeenResolvers) {
  world::World& world = shared_world();
  DohProber prober(world, world.make_clean_vantage("US"), 6);
  const auto discovery = prober.discover(world.url_dataset(), kFeb);
  EXPECT_EQ(discovery.resolvers.size(), 17u);
  EXPECT_GT(discovery.path_candidates, discovery.valid_urls);
  EXPECT_GE(discovery.valid_urls, 17u);
  std::unordered_set<std::string> hosts;
  for (const auto& resolver : discovery.resolvers) {
    hosts.insert(resolver.host);
    EXPECT_TRUE(resolver.cert_valid);  // Finding 1.2: DoH certs all valid
  }
  EXPECT_TRUE(hosts.contains("dns.rubyfish.cn"));
  EXPECT_TRUE(hosts.contains("dns.233py.com"));
  EXPECT_TRUE(hosts.contains("mozilla.cloudflare-dns.com"));
}

TEST(Scanner, SnapshotMatchesGroundTruth) {
  world::World& world = shared_world();
  CampaignConfig config;
  Scanner scanner(world, config);
  const auto snapshot = scanner.scan_once(kFeb);

  // Ground-truth active deployments at the scan date.
  std::unordered_set<std::uint32_t> expected;
  for (const auto& d : world.deployments().dot)
    if (kFeb.in_window(d.active_from, d.active_to)) expected.insert(d.address.value());

  std::size_t found_expected = 0;
  for (const auto& resolver : snapshot.resolvers)
    if (expected.contains(resolver.address.value())) ++found_expected;
  // Recall: nearly every active deployment is discovered.
  EXPECT_GT(found_expected, expected.size() * 95 / 100);
  // Precision: few resolvers outside the catalogue (our own infra + the
  // big providers' DoH addresses legitimately speak DoT too).
  EXPECT_LT(snapshot.resolvers.size() - found_expected, 8u);
  EXPECT_EQ(snapshot.addresses_probed, scanner.space().size());
  EXPECT_GT(snapshot.port_open, snapshot.resolvers.size() * 5);
}

// The parallel engine's contract: starting from identical state, the snapshot
// is bit-identical for every thread count, and repeated parallel runs agree
// with each other. Each run gets a fresh world because a scan warms resolver
// caches (shared state that legitimately changes later runs' latencies).
TEST(Scanner, SnapshotIsThreadCountInvariant) {
  const auto snapshot_with_threads = [](unsigned threads) {
    world::World world;
    CampaignConfig config;
    config.thread_count = threads;
    Scanner scanner(world, config);
    return scanner.scan_once(kFeb);
  };
  const auto serial = snapshot_with_threads(1);
  const auto parallel_a = snapshot_with_threads(8);
  const auto parallel_b = snapshot_with_threads(8);

  const auto equal = [](const ScanSnapshot& a, const ScanSnapshot& b) {
    if (a.addresses_probed != b.addresses_probed) return false;
    if (a.port_open != b.port_open) return false;
    if (a.tls_responsive != b.tls_responsive) return false;
    if (a.resolvers.size() != b.resolvers.size()) return false;
    for (std::size_t i = 0; i < a.resolvers.size(); ++i) {
      const auto& x = a.resolvers[i];
      const auto& y = b.resolvers[i];
      if (x.address != y.address || x.cert_cn != y.cert_cn ||
          x.provider != y.provider || x.cert_status != y.cert_status ||
          x.answer_correct != y.answer_correct || x.country != y.country ||
          x.probe_latency.value != y.probe_latency.value)
        return false;
    }
    return true;
  };
  EXPECT_TRUE(equal(serial, parallel_a));
  EXPECT_TRUE(equal(parallel_a, parallel_b));
}

// Same contract with the canonical fault profile switched on: faults are keyed
// off (seed, target, attempt), never scheduling, so retries, circuit-breaker
// trips, and the fault tallies themselves must all be bit-identical whether
// the sweep runs on one worker or eight.
TEST(Scanner, FaultySnapshotIsThreadCountInvariant) {
  const auto snapshot_with_threads = [](unsigned threads) {
    world::WorldConfig world_config;
    world_config.fault_profile = fault::FaultProfile::canonical();
    world::World world(world_config);
    CampaignConfig config;
    config.thread_count = threads;
    Scanner scanner(world, config);
    return scanner.scan_once(kFeb);
  };
  const auto serial = snapshot_with_threads(1);
  const auto parallel = snapshot_with_threads(8);

  EXPECT_EQ(serial.addresses_probed, parallel.addresses_probed);
  EXPECT_EQ(serial.port_open, parallel.port_open);
  EXPECT_EQ(serial.tls_responsive, parallel.tls_responsive);
  EXPECT_EQ(serial.breaker_skipped, parallel.breaker_skipped);
  EXPECT_EQ(serial.faults.injected, parallel.faults.injected);
  EXPECT_EQ(serial.faults.recovered, parallel.faults.recovered);
  EXPECT_EQ(serial.faults.surfaced, parallel.faults.surfaced);
  ASSERT_EQ(serial.resolvers.size(), parallel.resolvers.size());
  for (std::size_t i = 0; i < serial.resolvers.size(); ++i) {
    EXPECT_EQ(serial.resolvers[i].address, parallel.resolvers[i].address);
    EXPECT_EQ(serial.resolvers[i].probe_latency.value,
              parallel.resolvers[i].probe_latency.value);
  }
  // The injector actually fired, and the retry layer absorbed real faults.
  EXPECT_GT(serial.faults.injected, 0u);
  EXPECT_GT(serial.faults.recovered, 0u);
}

// ---------------------------------------------------------------------------
// Stateless sweep engine (DESIGN.md §14).

// A reduced space (the world's first few scan prefixes) keeps the faults-on
// engine sweeps fast; determinism properties do not depend on the space.
ScanSpace reduced_space(const world::World& world, std::size_t prefix_count) {
  const auto& all = world.scan_prefixes();
  const std::size_t n = std::min(prefix_count, all.size());
  return ScanSpace(
      std::vector<util::Cidr>(all.begin(), all.begin() + static_cast<long>(n)));
}

bool tallies_equal(const EngineTally& a, const EngineTally& b) {
  return a.transmitted == b.transmitted && a.probed == b.probed &&
         a.open == b.open && a.retransmits == b.retransmits &&
         a.rejected_forgery == b.rejected_forgery &&
         a.rejected_duplicate == b.rejected_duplicate &&
         a.rejected_stale == b.rejected_stale &&
         a.faults.injected == b.faults.injected &&
         a.faults.recovered == b.faults.recovered &&
         a.faults.surfaced == b.faults.surfaced &&
         a.sim_elapsed.value == b.sim_elapsed.value;
}

// The stateless engine and the legacy synchronous sweep must find the exact
// same open set in the same canonical order on a fault-free world — that
// equivalence is what lets the golden §3 corpus stay byte-identical while
// the sweep implementation underneath it changed completely.
TEST(ScanEngine, MatchesLegacySweepFaultFree) {
  const auto snapshot_with_mode = [](SweepMode mode) {
    world::World world;
    CampaignConfig config;
    config.sweep_mode = mode;
    Scanner scanner(world, config);
    return scanner.scan_once(kFeb);
  };
  const auto stateless = snapshot_with_mode(SweepMode::kStateless);
  const auto legacy = snapshot_with_mode(SweepMode::kLegacy);
  EXPECT_EQ(stateless.addresses_probed, legacy.addresses_probed);
  EXPECT_EQ(stateless.port_open, legacy.port_open);
  EXPECT_EQ(stateless.tls_responsive, legacy.tls_responsive);
  ASSERT_EQ(stateless.resolvers.size(), legacy.resolvers.size());
  for (std::size_t i = 0; i < stateless.resolvers.size(); ++i) {
    EXPECT_EQ(stateless.resolvers[i].address, legacy.resolvers[i].address);
    EXPECT_EQ(stateless.resolvers[i].cert_cn, legacy.resolvers[i].cert_cn);
    EXPECT_EQ(stateless.resolvers[i].probe_latency.value,
              legacy.resolvers[i].probe_latency.value);
  }
  // Fault-free: the receive loop saw nothing to reject.
  EXPECT_EQ(stateless.rejected_forgery, 0u);
  EXPECT_EQ(stateless.rejected_duplicate, 0u);
  EXPECT_EQ(stateless.rejected_stale, 0u);
  EXPECT_EQ(stateless.retransmits, 0u);
}

// The engine's own contract at ENCDNS_THREADS 1/2/8 with the canonical fault
// profile active: open set, receive-loop verdicts, retry tallies and summed
// simulated time are all bit-identical — threads only schedule shards.
TEST(ScanEngine, SweepIsThreadCountInvariantUnderFaults) {
  const auto sweep_with_threads = [](unsigned threads) {
    world::WorldConfig world_config;
    world_config.fault_profile = fault::FaultProfile::canonical();
    world::World world(world_config);
    const ScanSpace space = reduced_space(world, 6);
    CyclicPermutation permutation(space.size(), 0x5EEDBEEF);
    EngineConfig config;
    config.seed = 20190201;
    config.thread_count = threads;
    ScanEngine engine(world, config);
    return engine.sweep(space, permutation,
                        {world.make_clean_vantage("US"),
                         world.make_clean_vantage("CN")},
                        kFeb);
  };
  const SweepResult one = sweep_with_threads(1);
  const SweepResult two = sweep_with_threads(2);
  const SweepResult eight = sweep_with_threads(8);
  EXPECT_EQ(one.open_hosts, two.open_hosts);
  EXPECT_EQ(one.open_hosts, eight.open_hosts);
  EXPECT_TRUE(tallies_equal(one.tally, two.tally));
  EXPECT_TRUE(tallies_equal(one.tally, eight.tally));
  // The adversarial receive path actually fired: every fail-closed verdict
  // class was exercised, and retransmits recovered real dropped SYNs.
  EXPECT_GT(one.tally.retransmits, 0u);
  EXPECT_GT(one.tally.rejected_forgery, 0u);
  EXPECT_GT(one.tally.rejected_duplicate, 0u);
  EXPECT_GT(one.tally.rejected_stale, 0u);
  EXPECT_GT(one.tally.faults.recovered, 0u);
  // Window invariants hold on the happy path.
  EXPECT_EQ(one.tally.credit_leaks, 0u);
  EXPECT_EQ(one.tally.double_releases, 0u);
}

// The in-flight window and the pacing rate are flow control only: a window
// of one (fully synchronous drain), a huge window, and an aggressively paced
// sweep must all produce the same open set and tallies — they may only shift
// the window_high_water diagnostics.
TEST(ScanEngine, WindowAndPaceDoNotChangeResults) {
  const auto sweep_with = [](std::size_t window, double pace) {
    world::WorldConfig world_config;
    world_config.fault_profile = fault::FaultProfile::canonical();
    world::World world(world_config);
    const ScanSpace space = reduced_space(world, 4);
    CyclicPermutation permutation(space.size(), 0xAB12);
    EngineConfig config;
    config.seed = 77;
    config.window = window;
    config.pace_qps = pace;
    ScanEngine engine(world, config);
    return engine.sweep(space, permutation, {world.make_clean_vantage("US")},
                        kFeb);
  };
  const SweepResult tight = sweep_with(1, 0.0);
  const SweepResult wide = sweep_with(4096, 0.0);
  const SweepResult paced = sweep_with(256, 50000.0);
  EXPECT_EQ(tight.open_hosts, wide.open_hosts);
  EXPECT_EQ(tight.open_hosts, paced.open_hosts);
  EXPECT_TRUE(tallies_equal(tight.tally, wide.tally));
  EXPECT_EQ(tight.tally.transmitted, paced.tally.transmitted);
  EXPECT_EQ(tight.tally.probed, paced.tally.probed);
  EXPECT_EQ(tight.tally.open, paced.tally.open);
  EXPECT_EQ(tight.tally.retransmits, paced.tally.retransmits);
  EXPECT_EQ(tight.tally.rejected_forgery, paced.tally.rejected_forgery);
  EXPECT_EQ(tight.tally.rejected_duplicate, paced.tally.rejected_duplicate);
  EXPECT_EQ(tight.tally.rejected_stale, paced.tally.rejected_stale);
  EXPECT_EQ(tight.tally.faults.injected, paced.tally.faults.injected);
  EXPECT_EQ(tight.tally.faults.recovered, paced.tally.faults.recovered);
  EXPECT_EQ(tight.tally.faults.surfaced, paced.tally.faults.surfaced);
  EXPECT_EQ(tight.tally.sim_elapsed.value, paced.tally.sim_elapsed.value);
  // The window bound was genuinely enforced, not merely configured.
  EXPECT_EQ(tight.tally.window_high_water, 1u);
  EXPECT_GT(wide.tally.window_high_water, 1u);
  EXPECT_EQ(tight.tally.credit_leaks, 0u);
  EXPECT_EQ(wide.tally.credit_leaks, 0u);
  EXPECT_EQ(paced.tally.credit_leaks, 0u);
}

// Value lock for the faults-on sweep. The invariance tests above only prove
// that runs agree with each other; this one pins what they agree on, so an
// engine change that shifts a verdict, a tally or a summed latency the same
// way at every thread count still fails. The values were captured before the
// engine classified order-free verdicts at transmit time, and must not move.
TEST(ScanEngine, FaultedSweepMatchesCommittedBaseline) {
  struct Expected {
    std::uint64_t permutation_seed;
    std::uint64_t cookie_seed;
    std::uint64_t transmitted, probed, open, retransmits;
    std::uint64_t forgery, duplicate, stale;
    std::uint64_t injected, recovered, surfaced;
    std::int64_t sim_ns;
    std::uint64_t open_digest;
  };
  const Expected cases[] = {
      {0x5EEDBEEF, 20190201, 332909, 327680, 3291, 5229, 973, 5010, 1303,
       5229, 4619, 197, 52601194146514, 0x777247260cc0a5afULL},
      {0xC0FFEE, 7, 332900, 327680, 3295, 5220, 1024, 4834, 1306, 5220, 4614,
       209, 52420121887172, 0xe54663fcf8c4d0c3ULL},
  };
  world::WorldConfig world_config;
  world_config.fault_profile = fault::FaultProfile::canonical();
  for (const Expected& want : cases) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(testing::Message() << "seed " << want.cookie_seed
                                      << ", threads " << threads);
      world::World world(world_config);
      const ScanSpace space = reduced_space(world, 5);
      CyclicPermutation permutation(space.size(), want.permutation_seed);
      EngineConfig config;
      config.seed = want.cookie_seed;
      config.thread_count = threads;
      ScanEngine engine(world, config);
      const SweepResult got = engine.sweep(
          space, permutation,
          {world.make_clean_vantage("US"), world.make_clean_vantage("DE")},
          kFeb);
      std::uint64_t digest = util::kFnv1aBasis;
      for (const util::Ipv4 addr : got.open_hosts) {
        const std::uint32_t v = addr.value();
        const std::uint8_t bytes[4] = {
            static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
            static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
        digest = util::fnv1a_bytes(bytes, sizeof bytes, digest);
      }
      const EngineTally& t = got.tally;
      EXPECT_EQ(t.transmitted, want.transmitted);
      EXPECT_EQ(t.probed, want.probed);
      EXPECT_EQ(t.open, want.open);
      EXPECT_EQ(t.retransmits, want.retransmits);
      EXPECT_EQ(t.rejected_forgery, want.forgery);
      EXPECT_EQ(t.rejected_duplicate, want.duplicate);
      EXPECT_EQ(t.rejected_stale, want.stale);
      EXPECT_EQ(t.faults.injected, want.injected);
      EXPECT_EQ(t.faults.recovered, want.recovered);
      EXPECT_EQ(t.faults.surfaced, want.surfaced);
      EXPECT_EQ(std::llround(t.sim_elapsed.value * 1e6), want.sim_ns);
      EXPECT_EQ(digest, want.open_digest);
      EXPECT_EQ(got.open_hosts.size(), t.open);
    }
  }
}

// A sweep that starts already cancelled emits nothing and leaks nothing.
TEST(ScanEngine, PreCancelledSweepIsEmptyAndLeakFree) {
  world::World& world = shared_world();
  const ScanSpace space = reduced_space(world, 2);
  CyclicPermutation permutation(space.size(), 3);
  exec::CancelToken cancel;
  cancel.cancel("test: cancelled before the sweep");
  EngineConfig config;
  config.seed = 9;
  config.cancel = &cancel;
  ScanEngine engine(world, config);
  const SweepResult result =
      engine.sweep(space, permutation, {world.make_clean_vantage("US")}, kFeb);
  EXPECT_EQ(result.tally.probed, 0u);
  EXPECT_TRUE(result.open_hosts.empty());
  EXPECT_EQ(result.tally.credit_leaks, 0u);
  EXPECT_EQ(result.tally.double_releases, 0u);
}

// ---------------------------------------------------------------------------
// E-DoH-style IP-directed DoH discovery (scan/doh_scan.hpp).

TEST(DohScan, FindsDeployedEndpointsByAddress) {
  world::World& world = shared_world();
  DohScanConfig config;
  const auto result = run_doh_scan(world, config, kFeb.plus_days(60));
  // The 443 sweep covers the whole routable space but only bound services
  // answer: port-open count is tiny next to addresses probed.
  EXPECT_GT(result.addresses_probed, 1000000u);
  EXPECT_LT(result.port443_open, 200u);
  EXPECT_GE(result.port443_open, result.tls_established);
  EXPECT_FALSE(result.endpoints.empty());
  for (const auto& endpoint : result.endpoints) {
    EXPECT_TRUE(endpoint.answer_correct);
    EXPECT_FALSE(endpoint.host.empty());
    EXPECT_EQ(endpoint.uri_template,
              "https://" + endpoint.host + endpoint.path + "{?dns}");
  }
  // Canonical output order: ascending address.
  for (std::size_t i = 1; i < result.endpoints.size(); ++i)
    EXPECT_LT(result.endpoints[i - 1].address.value(),
              result.endpoints[i].address.value());
  // The scan's reason to exist: it reaches at least one endpoint the URL
  // dataset's host set does not contain (cf. the doh-scan golden table).
  DohProber prober(world, world.make_clean_vantage("US"), 6);
  const auto discovery = prober.discover(world.url_dataset(), kFeb);
  std::vector<std::string> url_hosts;
  for (const auto& resolver : discovery.resolvers)
    url_hosts.push_back(resolver.host);
  EXPECT_GE(result.hosts_beyond(url_hosts), 1u);
}

TEST(DohScan, ResultIsThreadCountInvariantUnderFaults) {
  const auto run_with_threads = [](unsigned threads) {
    world::WorldConfig world_config;
    world_config.fault_profile = fault::FaultProfile::canonical();
    world::World world(world_config);
    DohScanConfig config;
    config.thread_count = threads;
    return run_doh_scan(world, config, kFeb.plus_days(60));
  };
  const auto serial = run_with_threads(1);
  const auto parallel = run_with_threads(8);
  EXPECT_EQ(serial.addresses_probed, parallel.addresses_probed);
  EXPECT_EQ(serial.port443_open, parallel.port443_open);
  EXPECT_EQ(serial.tls_established, parallel.tls_established);
  EXPECT_EQ(serial.retransmits, parallel.retransmits);
  EXPECT_EQ(serial.rejected_forgery, parallel.rejected_forgery);
  EXPECT_EQ(serial.rejected_duplicate, parallel.rejected_duplicate);
  EXPECT_EQ(serial.rejected_stale, parallel.rejected_stale);
  EXPECT_EQ(serial.faults.injected, parallel.faults.injected);
  EXPECT_EQ(serial.faults.recovered, parallel.faults.recovered);
  EXPECT_EQ(serial.faults.surfaced, parallel.faults.surfaced);
  ASSERT_EQ(serial.endpoints.size(), parallel.endpoints.size());
  for (std::size_t i = 0; i < serial.endpoints.size(); ++i) {
    EXPECT_EQ(serial.endpoints[i].address, parallel.endpoints[i].address);
    EXPECT_EQ(serial.endpoints[i].host, parallel.endpoints[i].host);
    EXPECT_EQ(serial.endpoints[i].path, parallel.endpoints[i].path);
    EXPECT_EQ(serial.endpoints[i].probe_latency.value,
              parallel.endpoints[i].probe_latency.value);
  }
}

TEST(Scanner, CampaignShowsGrowthAndChurn) {
  world::World& world = shared_world();
  CampaignConfig config;
  config.scan_count = 2;
  config.interval_days = 89;  // Feb 1 and May 1
  Scanner scanner(world, config);
  const auto snapshots = scanner.run_campaign();
  ASSERT_EQ(snapshots.size(), 2u);
  EXPECT_GT(snapshots[1].resolvers.size(), snapshots[0].resolvers.size());
  // CN shrinks, US grows (Table 2).
  util::Counter first, last;
  for (const auto& r : snapshots[0].resolvers) first.add(r.country);
  for (const auto& r : snapshots[1].resolvers) last.add(r.country);
  EXPECT_LT(last.get("CN"), first.get("CN") * 0.3);
  EXPECT_GT(last.get("US"), first.get("US") * 3);
  EXPECT_GT(last.get("IE"), first.get("IE") * 1.5);
}

}  // namespace
}  // namespace encdns::scan
