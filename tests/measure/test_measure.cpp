#include <gtest/gtest.h>

#include "exec/executor.hpp"
#include "measure/local_probe.hpp"
#include "measure/performance.hpp"
#include "measure/reachability.hpp"
#include "measure/targets.hpp"

namespace encdns::measure {
namespace {

world::World& shared_world() {
  static world::World world;
  return world;
}

TEST(Targets, FourResolversWithExpectedCapabilities) {
  const auto targets = default_targets();
  ASSERT_EQ(targets.size(), 4u);
  EXPECT_EQ(targets[0].name, "Cloudflare");
  EXPECT_TRUE(targets[0].dot_address.has_value());
  EXPECT_TRUE(targets[0].doh_template.has_value());
  EXPECT_EQ(targets[1].name, "Google");
  EXPECT_FALSE(targets[1].dot_address.has_value());  // "n/a" in Table 4
  EXPECT_TRUE(targets[1].doh_template.has_value());
  EXPECT_EQ(targets[3].name, "Self-built");
}

TEST(Targets, DiagnosticPortsMatchFigure7) {
  const auto& ports = diagnostic_ports();
  for (const std::uint16_t port : {22, 23, 53, 67, 80, 123, 139, 161, 179, 443})
    EXPECT_NE(std::find(ports.begin(), ports.end(), port), ports.end()) << port;
}

TEST(OutcomeCounts, Fractions) {
  OutcomeCounts counts;
  counts.correct = 80;
  counts.incorrect = 5;
  counts.failed = 15;
  EXPECT_DOUBLE_EQ(counts.fraction(Outcome::kCorrect), 0.80);
  EXPECT_DOUBLE_EQ(counts.fraction(Outcome::kIncorrect), 0.05);
  EXPECT_DOUBLE_EQ(counts.fraction(Outcome::kFailed), 0.15);
  EXPECT_DOUBLE_EQ(OutcomeCounts{}.fraction(Outcome::kFailed), 0.0);
}

struct ReachabilityFixture : ::testing::Test {
  static const ReachabilityResults& global_results() {
    static const ReachabilityResults results = [] {
      proxy::ProxyNetwork platform(shared_world(), proxy::ProxyConfig{}, 21);
      ReachabilityConfig config;
      config.client_count = 1200;
      exec::WorkerPool pool;
      ReachabilityTest test(shared_world(), platform, config, pool);
      return test.run();
    }();
    return results;
  }
  static const ReachabilityResults& cn_results() {
    static const ReachabilityResults results = [] {
      proxy::ProxyConfig proxy_config;
      proxy_config.name = "Zhima";
      proxy_config.kind = proxy::PlatformKind::kCensoredCn;
      proxy::ProxyNetwork platform(shared_world(), proxy_config, 22);
      ReachabilityConfig config;
      config.client_count = 800;
      config.seed = 23;
      exec::WorkerPool pool;
      ReachabilityTest test(shared_world(), platform, config, pool);
      return test.run();
    }();
    return results;
  }
};

TEST_F(ReachabilityFixture, CloudflareClearTextFailsFarMoreThanDoT) {
  const auto& results = global_results();
  const double dns_failed =
      results.cell("Cloudflare", Protocol::kDo53).fraction(Outcome::kFailed);
  const double dot_failed =
      results.cell("Cloudflare", Protocol::kDoT).fraction(Outcome::kFailed);
  const double doh_failed =
      results.cell("Cloudflare", Protocol::kDoH).fraction(Outcome::kFailed);
  EXPECT_GT(dns_failed, 0.10);  // paper: 16.46%
  EXPECT_LT(dns_failed, 0.25);
  EXPECT_GT(dot_failed, 0.003);  // paper: 1.14%
  EXPECT_LT(dot_failed, 0.04);
  EXPECT_LT(doh_failed, 0.02);   // paper: 0.05%
  EXPECT_GT(dns_failed, dot_failed * 5);
}

TEST_F(ReachabilityFixture, EncryptedTransportsBeatClearTextEverywhere) {
  const auto& results = global_results();
  for (const char* resolver : {"Cloudflare", "Google"}) {
    const double dns =
        results.cell(resolver, Protocol::kDo53).fraction(Outcome::kFailed);
    const double doh =
        results.cell(resolver, Protocol::kDoH).fraction(Outcome::kFailed);
    EXPECT_GT(dns, doh) << resolver;
  }
}

TEST_F(ReachabilityFixture, Quad9DohServfailsAtHighRate) {
  const auto& results = global_results();
  const double incorrect =
      results.cell("Quad9", Protocol::kDoH).fraction(Outcome::kIncorrect);
  EXPECT_GT(incorrect, 0.06);  // paper: 13.09%
  EXPECT_LT(incorrect, 0.22);
  // Its clear-text and DoT paths stay clean.
  EXPECT_LT(results.cell("Quad9", Protocol::kDo53).fraction(Outcome::kFailed), 0.02);
  EXPECT_LT(results.cell("Quad9", Protocol::kDoT).fraction(Outcome::kFailed), 0.02);
}

TEST_F(ReachabilityFixture, SelfBuiltNearlyPerfect) {
  const auto& results = global_results();
  for (const Protocol protocol :
       {Protocol::kDo53, Protocol::kDoT, Protocol::kDoH}) {
    EXPECT_GT(results.cell("Self-built", protocol).fraction(Outcome::kCorrect),
              0.985);
  }
}

TEST_F(ReachabilityFixture, ConflictDiagnosesShapeTable5) {
  const auto& results = global_results();
  ASSERT_FALSE(results.conflict_diagnoses.empty());
  std::size_t none = 0, with_80 = 0;
  for (const auto& diagnosis : results.conflict_diagnoses) {
    if (diagnosis.open_ports.empty()) ++none;
    for (const std::uint16_t port : diagnosis.open_ports)
      if (port == 80) ++with_80;
  }
  // Most conflicting destinations have no ports open (blackholed), and the
  // device population exposes 80/443 most often.
  EXPECT_GT(none, results.conflict_diagnoses.size() / 3);
  EXPECT_GT(with_80, 0u);
}

TEST_F(ReachabilityFixture, InterceptionRecordsCarryUntrustedCa) {
  const auto& results = global_results();
  for (const auto& record : results.interceptions) {
    EXPECT_FALSE(record.untrusted_ca_cn.empty());
    EXPECT_TRUE(record.port_443 || record.port_853);
    // DoH is strict: it can never have answered through an interceptor.
    EXPECT_FALSE(record.doh_lookup_succeeded);
  }
}

TEST_F(ReachabilityFixture, CensoredPlatformBlocksGoogleDoh) {
  const auto& results = cn_results();
  EXPECT_GT(results.cell("Google", Protocol::kDoH).fraction(Outcome::kFailed),
            0.99);  // paper: 99.99%
  // Clear-text Google DNS mostly works from CN.
  EXPECT_LT(results.cell("Google", Protocol::kDo53).fraction(Outcome::kFailed),
            0.05);
  // Cloudflare 1.1.1.1 blackholed for a sizable minority on 53 AND 853.
  const double dns =
      results.cell("Cloudflare", Protocol::kDo53).fraction(Outcome::kFailed);
  const double dot =
      results.cell("Cloudflare", Protocol::kDoT).fraction(Outcome::kFailed);
  EXPECT_GT(dns, 0.08);
  EXPECT_NEAR(dns, dot, 0.05);  // same root cause, same rate
  // Cloudflare DoH rides different addresses and stays reachable.
  EXPECT_LT(results.cell("Cloudflare", Protocol::kDoH).fraction(Outcome::kFailed),
            0.05);
}

// The parallel engine's contract for the vantage fan-out: identical results
// for every thread count, and repeated parallel runs agree.
// Each run gets a fresh world: measurements warm resolver caches, so reusing
// a world would legitimately change later runs' latencies and outcomes.
TEST(Reachability, ResultsAreThreadCountInvariant) {
  const auto run_with_threads = [](unsigned threads) {
    world::World world;
    proxy::ProxyNetwork platform(world, proxy::ProxyConfig{}, 27);
    ReachabilityConfig config;
    config.client_count = 150;
    exec::WorkerPool pool(threads);
    ReachabilityTest test(world, platform, config, pool);
    return test.run();
  };
  const auto serial = run_with_threads(1);
  const auto parallel_a = run_with_threads(8);
  const auto parallel_b = run_with_threads(8);

  const auto equal = [](const ReachabilityResults& a,
                        const ReachabilityResults& b) {
    if (a.clients != b.clients) return false;
    if (a.cells.size() != b.cells.size()) return false;
    for (const auto& [key, counts] : a.cells) {
      const auto it = b.cells.find(key);
      if (it == b.cells.end()) return false;
      if (counts.correct != it->second.correct ||
          counts.incorrect != it->second.incorrect ||
          counts.failed != it->second.failed)
        return false;
    }
    if (a.interceptions.size() != b.interceptions.size()) return false;
    for (std::size_t i = 0; i < a.interceptions.size(); ++i) {
      if (a.interceptions[i].client_address != b.interceptions[i].client_address ||
          a.interceptions[i].untrusted_ca_cn != b.interceptions[i].untrusted_ca_cn)
        return false;
    }
    if (a.conflict_diagnoses.size() != b.conflict_diagnoses.size()) return false;
    for (std::size_t i = 0; i < a.conflict_diagnoses.size(); ++i) {
      if (a.conflict_diagnoses[i].client_address !=
              b.conflict_diagnoses[i].client_address ||
          a.conflict_diagnoses[i].open_ports != b.conflict_diagnoses[i].open_ports ||
          a.conflict_diagnoses[i].webpage_excerpt !=
              b.conflict_diagnoses[i].webpage_excerpt)
        return false;
    }
    return true;
  };
  EXPECT_TRUE(equal(serial, parallel_a));
  EXPECT_TRUE(equal(parallel_a, parallel_b));
}

TEST(Performance, ResultsAreThreadCountInvariant) {
  const auto run_with_threads = [](unsigned threads) {
    world::World world;
    proxy::ProxyNetwork platform(world, proxy::ProxyConfig{}, 33);
    PerformanceConfig config;
    config.client_count = 150;
    exec::WorkerPool pool(threads);
    PerformanceTest test(world, platform, config, pool);
    return test.run();
  };
  const auto serial = run_with_threads(1);
  const auto parallel_a = run_with_threads(8);
  const auto parallel_b = run_with_threads(8);

  const auto equal = [](const PerformanceResults& a, const PerformanceResults& b) {
    if (a.discarded_clients != b.discarded_clients) return false;
    if (a.clients.size() != b.clients.size()) return false;
    for (std::size_t i = 0; i < a.clients.size(); ++i) {
      if (a.clients[i].country != b.clients[i].country ||
          a.clients[i].dns_ms != b.clients[i].dns_ms ||
          a.clients[i].dot_ms != b.clients[i].dot_ms ||
          a.clients[i].doh_ms != b.clients[i].doh_ms)
        return false;
    }
    return true;
  };
  EXPECT_TRUE(equal(serial, parallel_a));
  EXPECT_TRUE(equal(parallel_a, parallel_b));
}

TEST(Performance, ReusedConnectionOverheadIsSmall) {
  proxy::ProxyNetwork platform(shared_world(), proxy::ProxyConfig{}, 31);
  PerformanceConfig config;
  config.client_count = 400;
  exec::WorkerPool pool;
  PerformanceTest test(shared_world(), platform, config, pool);
  const auto results = test.run();
  ASSERT_GT(results.clients.size(), 250u);
  const double dot_median = results.overall(false, true);
  const double doh_median = results.overall(true, true);
  EXPECT_GT(dot_median, -5.0);
  EXPECT_LT(dot_median, 25.0);  // paper: several ms
  EXPECT_GT(doh_median, -15.0);
  EXPECT_LT(doh_median, 25.0);
  const auto rows = results.by_country(10);
  EXPECT_FALSE(rows.empty());
}

TEST(Performance, NoReuseOverheadIsLarge) {
  const auto rows = run_no_reuse_test(shared_world());
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& row : rows) {
    EXPECT_GT(row.dns_s, 0.05);
    // TLS setup costs at least ~2 extra RTTs: tens to hundreds of ms.
    EXPECT_GT(row.dot_overhead_ms(), 30.0);
    EXPECT_GT(row.doh_overhead_ms(), 30.0);
    EXPECT_LT(row.dot_overhead_ms(), 1200.0);
  }
  // Farther vantages pay more (paper: US < NL < AU).
  const auto find = [&](const char* country) {
    for (const auto& row : rows)
      if (row.vantage_country == country) return row;
    return rows.front();
  };
  EXPECT_LT(find("US").dot_overhead_ms(), find("AU").dot_overhead_ms());
}

TEST(LocalProbe, IspDotDeploymentIsScarce) {
  LocalProbeConfig config;
  config.probe_count = 2000;
  const auto results = run_local_resolver_probe(shared_world(), config);
  EXPECT_EQ(results.probes, 2000u);
  EXPECT_LT(results.success_rate(), 0.03);  // paper: 0.3%
}

// --- fault-injection robustness --------------------------------------------

world::WorldConfig canonical_fault_config() {
  world::WorldConfig config;
  config.fault_profile = fault::FaultProfile::canonical();
  return config;
}

bool tally_equal(const fault::LayerTally& a, const fault::LayerTally& b) {
  return a.injected == b.injected && a.recovered == b.recovered &&
         a.surfaced == b.surfaced;
}

// With the canonical fault profile active, every retry, backoff draw and
// session failover still happens on per-shard rng streams, so the whole
// result — cells, diagnoses AND the fault tallies — is bit-identical for
// any thread count.
TEST(Reachability, FaultyRunIsThreadCountInvariant) {
  const auto run_with_threads = [](unsigned threads) {
    world::World world(canonical_fault_config());
    proxy::ProxyNetwork platform(world, proxy::ProxyConfig{}, 27);
    ReachabilityConfig config;
    config.client_count = 150;
    exec::WorkerPool pool(threads);
    ReachabilityTest test(world, platform, config, pool);
    return test.run();
  };
  const auto serial = run_with_threads(1);
  const auto parallel = run_with_threads(8);

  EXPECT_EQ(serial.clients, parallel.clients);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (const auto& [key, counts] : serial.cells) {
    const auto it = parallel.cells.find(key);
    ASSERT_NE(it, parallel.cells.end());
    EXPECT_EQ(counts.correct, it->second.correct) << key.first;
    EXPECT_EQ(counts.incorrect, it->second.incorrect) << key.first;
    EXPECT_EQ(counts.failed, it->second.failed) << key.first;
  }
  EXPECT_EQ(serial.interceptions.size(), parallel.interceptions.size());
  EXPECT_EQ(serial.conflict_diagnoses.size(),
            parallel.conflict_diagnoses.size());
  EXPECT_TRUE(tally_equal(serial.client_faults, parallel.client_faults));
  EXPECT_TRUE(tally_equal(serial.proxy_faults, parallel.proxy_faults));
  // The canonical profile actually exercises the resilience paths: faults
  // are injected and mostly recovered.
  EXPECT_GT(serial.client_faults.injected, 0u);
  EXPECT_GT(serial.client_faults.recovered, 0u);
}

// The arena-backed fan-out keeps per-worker state alive across sessions: a
// thread-resident ClientSet rebound per vantage, a reused ClientOutcome whose
// response/chain storage deliberately outlives each query, and flat per-cell
// tally vectors (DESIGN.md §12). With the canonical fault profile driving
// retries, backoffs and mid-session failovers through those reused slots,
// every thread count — 1 (all sessions share one scratch), 2 (uneven shard
// interleaving) and 8 — must still produce byte-identical *content*, down to
// the interception CA names and diagnosis excerpts that stale scratch would
// corrupt first. Each run gets a fresh world; the serial run reuses the
// calling thread's scratch warmed by previous runs, which pins the
// cross-world rebind contract as well.
TEST(Reachability, FaultyArenaScratchReuseIsThreadCountInvariant) {
  const auto run_with_threads = [](unsigned threads) {
    // Canonical faults, plus interception and conflict rates cranked far
    // above the paper's so the record-content comparison below always has
    // material: this test pins scratch-reuse correctness, not Table 4 rates.
    world::WorldConfig world_config = canonical_fault_config();
    world_config.intercept_rate = 0.03;
    world_config.conflict_rate = 0.03;
    world::World world(world_config);
    proxy::ProxyNetwork platform(world, proxy::ProxyConfig{}, 27);
    ReachabilityConfig config;
    config.client_count = 1000;
    exec::WorkerPool pool(threads);
    ReachabilityTest test(world, platform, config, pool);
    return test.run();
  };
  const auto reference = run_with_threads(1);
  // The faulty profile must actually exercise the reuse paths under test.
  EXPECT_GT(reference.client_faults.injected, 0u);
  EXPECT_GT(reference.proxy_faults.injected, 0u);
  ASSERT_FALSE(reference.interceptions.empty());
  ASSERT_FALSE(reference.conflict_diagnoses.empty());

  for (const unsigned threads : {2u, 8u}) {
    const auto run = run_with_threads(threads);
    EXPECT_EQ(run.clients, reference.clients) << threads;
    ASSERT_EQ(run.cells.size(), reference.cells.size()) << threads;
    for (const auto& [key, counts] : reference.cells) {
      const auto it = run.cells.find(key);
      ASSERT_NE(it, run.cells.end()) << threads << " " << key.first;
      EXPECT_EQ(counts.correct, it->second.correct) << threads << " " << key.first;
      EXPECT_EQ(counts.incorrect, it->second.incorrect)
          << threads << " " << key.first;
      EXPECT_EQ(counts.failed, it->second.failed) << threads << " " << key.first;
    }
    ASSERT_EQ(run.interceptions.size(), reference.interceptions.size()) << threads;
    for (std::size_t i = 0; i < run.interceptions.size(); ++i) {
      const auto& a = reference.interceptions[i];
      const auto& b = run.interceptions[i];
      EXPECT_EQ(a.client_address, b.client_address) << threads;
      EXPECT_EQ(a.country, b.country) << threads;
      EXPECT_EQ(a.asn, b.asn) << threads;
      EXPECT_EQ(a.untrusted_ca_cn, b.untrusted_ca_cn) << threads;
      EXPECT_EQ(a.port_443, b.port_443) << threads;
      EXPECT_EQ(a.port_853, b.port_853) << threads;
      EXPECT_EQ(a.dot_lookup_succeeded, b.dot_lookup_succeeded) << threads;
      EXPECT_EQ(a.doh_lookup_succeeded, b.doh_lookup_succeeded) << threads;
    }
    ASSERT_EQ(run.conflict_diagnoses.size(), reference.conflict_diagnoses.size())
        << threads;
    for (std::size_t i = 0; i < run.conflict_diagnoses.size(); ++i) {
      const auto& a = reference.conflict_diagnoses[i];
      const auto& b = run.conflict_diagnoses[i];
      EXPECT_EQ(a.client_address, b.client_address) << threads;
      EXPECT_EQ(a.country, b.country) << threads;
      EXPECT_EQ(a.open_ports, b.open_ports) << threads;
      EXPECT_EQ(a.webpage_excerpt, b.webpage_excerpt) << threads;
    }
    EXPECT_TRUE(tally_equal(run.client_faults, reference.client_faults)) << threads;
    EXPECT_TRUE(tally_equal(run.proxy_faults, reference.proxy_faults)) << threads;
  }
}

TEST(Performance, FaultyRunIsThreadCountInvariant) {
  const auto run_with_threads = [](unsigned threads) {
    world::World world(canonical_fault_config());
    proxy::ProxyNetwork platform(world, proxy::ProxyConfig{}, 33);
    PerformanceConfig config;
    config.client_count = 150;
    exec::WorkerPool pool(threads);
    PerformanceTest test(world, platform, config, pool);
    return test.run();
  };
  const auto serial = run_with_threads(1);
  const auto parallel = run_with_threads(8);

  EXPECT_EQ(serial.discarded_clients, parallel.discarded_clients);
  ASSERT_EQ(serial.clients.size(), parallel.clients.size());
  for (std::size_t i = 0; i < serial.clients.size(); ++i) {
    EXPECT_EQ(serial.clients[i].country, parallel.clients[i].country);
    EXPECT_EQ(serial.clients[i].dns_ms, parallel.clients[i].dns_ms);
    EXPECT_EQ(serial.clients[i].dot_ms, parallel.clients[i].dot_ms);
    EXPECT_EQ(serial.clients[i].doh_ms, parallel.clients[i].doh_ms);
  }
  EXPECT_TRUE(tally_equal(serial.client_faults, parallel.client_faults));
  EXPECT_TRUE(tally_equal(serial.proxy_faults, parallel.proxy_faults));
  EXPECT_GT(serial.client_faults.injected, 0u);
  EXPECT_GT(serial.client_faults.recovered, 0u);
  EXPECT_GT(serial.proxy_faults.injected, 0u);
  EXPECT_GT(serial.proxy_faults.recovered, 0u);
}

// The robustness acceptance bar: under the canonical profile the Table-4
// headline fractions reproduce within one percentage point of a fault-free
// run, because the retry/backoff/failover stack absorbs the injected
// transients instead of letting them masquerade as measurement results.
TEST(Reachability, CanonicalFaultsMoveHeadlineFractionsLessThanOnePoint) {
  const auto run_with_world = [](const world::WorldConfig& world_config) {
    world::World world(world_config);
    proxy::ProxyNetwork platform(world, proxy::ProxyConfig{}, 27);
    ReachabilityConfig config;
    config.client_count = 1200;
    exec::WorkerPool pool;
    ReachabilityTest test(world, platform, config, pool);
    return test.run();
  };
  const auto clean = run_with_world(world::WorldConfig{});
  const auto faulty = run_with_world(canonical_fault_config());

  // Same platform seed, untouched serial acquisition: identical vantages.
  ASSERT_EQ(clean.clients, faulty.clients);
  EXPECT_GT(faulty.client_faults.injected, 0u);
  EXPECT_GT(faulty.client_faults.recovered, 0u);
  EXPECT_GT(faulty.proxy_faults.injected, 0u);
  EXPECT_GT(faulty.proxy_faults.recovered, 0u);

  // Aggregate fractions across every (resolver, protocol) cell.
  const auto aggregate = [](const ReachabilityResults& results) {
    OutcomeCounts total;
    for (const auto& [key, counts] : results.cells) {
      total.correct += counts.correct;
      total.incorrect += counts.incorrect;
      total.failed += counts.failed;
    }
    return total;
  };
  const OutcomeCounts clean_total = aggregate(clean);
  const OutcomeCounts faulty_total = aggregate(faulty);
  ASSERT_EQ(clean_total.total(), faulty_total.total());
  EXPECT_NEAR(faulty_total.fraction(Outcome::kCorrect),
              clean_total.fraction(Outcome::kCorrect), 0.01);
  EXPECT_NEAR(faulty_total.fraction(Outcome::kIncorrect),
              clean_total.fraction(Outcome::kIncorrect), 0.01);
  EXPECT_NEAR(faulty_total.fraction(Outcome::kFailed),
              clean_total.fraction(Outcome::kFailed), 0.01);

  // The headline per-resolver cells (Cloudflare row of Table 4) hold too.
  for (const Protocol protocol :
       {Protocol::kDo53, Protocol::kDoT, Protocol::kDoH}) {
    EXPECT_NEAR(faulty.cell("Cloudflare", protocol).fraction(Outcome::kFailed),
                clean.cell("Cloudflare", protocol).fraction(Outcome::kFailed),
                0.01)
        << static_cast<int>(protocol);
  }
}

TEST(Performance, CanonicalFaultsKeepOverheadsAndDiscardsClose) {
  const auto run_with_world = [](const world::WorldConfig& world_config) {
    world::World world(world_config);
    proxy::ProxyNetwork platform(world, proxy::ProxyConfig{}, 33);
    PerformanceConfig config;
    config.client_count = 600;
    exec::WorkerPool pool;
    PerformanceTest test(world, platform, config, pool);
    return test.run();
  };
  const auto clean = run_with_world(world::WorldConfig{});
  const auto faulty = run_with_world(canonical_fault_config());

  EXPECT_GT(faulty.client_faults.injected, 0u);
  EXPECT_GT(faulty.client_faults.recovered, 0u);
  EXPECT_GT(faulty.proxy_faults.injected, 0u);
  EXPECT_GT(faulty.proxy_faults.recovered, 0u);

  // Discards move by a couple of points, not ±1 pp: every extra faulty-run
  // discard traces to an injected exit-node death whose failover re-rolls the
  // vantage, and the replacement draws from the same population (~1 in 6 sits
  // behind a persistent port-53 filter, so its Do53 leg can never succeed).
  // That is the correct surfacing of a genuinely broken path, not a missed
  // transient, so the bound here is a looser sanity band than the strict
  // ±1 pp the reachability headline-fraction test enforces.
  const auto discard_fraction = [](const PerformanceResults& results) {
    const double total =
        static_cast<double>(results.clients.size() + results.discarded_clients);
    return static_cast<double>(results.discarded_clients) / total;
  };
  EXPECT_NEAR(discard_fraction(faulty), discard_fraction(clean), 0.03);
  // Median overheads stay within a narrow absolute band: retries replace lost
  // samples instead of polluting the distribution with timeout-sized values,
  // and the small residual shift comes from the kept-client set changing
  // composition after failovers. Either way the paper's qualitative claim
  // holds: with connection reuse both encrypted transports cost only a few
  // extra milliseconds over Do53, nowhere near a timeout-sized blowup.
  EXPECT_NEAR(faulty.overall(/*doh=*/false, /*median=*/true),
              clean.overall(false, true), 25.0);
  EXPECT_NEAR(faulty.overall(/*doh=*/true, /*median=*/true),
              clean.overall(true, true), 25.0);
  EXPECT_LT(faulty.overall(/*doh=*/true, /*median=*/true), 50.0);
  EXPECT_LT(faulty.overall(/*doh=*/false, /*median=*/true), 50.0);
}

}  // namespace
}  // namespace encdns::measure
