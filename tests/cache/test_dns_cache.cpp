// Unit tests for the sharded TTL-aware DNS record cache (DESIGN.md §10):
// exact-second TTL boundaries, RFC 2308 negative caching (and SERVFAIL
// rejection), shard distribution, deterministic LRU eviction, the
// no-flush-on-full guarantee, RFC 8767 serve-stale, the wire-form entry
// round trip, export/merge pass-through, and the ENCDNS_CACHE_*
// environment overrides.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <list>
#include <numeric>
#include <string>
#include <vector>

#include "../dns/fuzz_corpus.hpp"
#include "cache/dns_cache.hpp"
#include "dns/message.hpp"
#include "dns/name.hpp"
#include "dns/wire.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace encdns::cache {
namespace {

[[nodiscard]] CachedAnswer a_answer(const std::string& name,
                                    std::uint32_t ttl = 300) {
  // Cache keys carry a "/<type>" suffix that is not part of the owner name.
  const auto parsed = dns::Name::parse(name.substr(0, name.find('/')));
  CachedAnswer answer;
  answer.answers.push_back(
      dns::ResourceRecord::a(parsed ? *parsed : *dns::Name::parse("rr.test"),
                             util::Ipv4(192, 0, 2, 1), ttl));
  return answer;
}

[[nodiscard]] CachedAnswer nxdomain_answer() {
  CachedAnswer answer;
  answer.rcode = dns::RCode::kNxDomain;
  return answer;
}

TEST(CachedAnswer, NegativeClassification) {
  EXPECT_FALSE(a_answer("a.test").negative());
  EXPECT_TRUE(nxdomain_answer().negative());  // RFC 2308 name error
  CachedAnswer nodata;                        // NOERROR + empty answer section
  EXPECT_TRUE(nodata.negative());
}

TEST(DnsCache, HitWithinTtlMissAtExactExpiry) {
  DnsCache cache;
  std::vector<dns::ResourceRecord> out;
  ASSERT_TRUE(cache.store("a.test/1", a_answer("a.test", 300), 1000));
  // Fresh until the last second of the TTL...
  EXPECT_TRUE(cache.lookup("a.test/1", 1000, out).has_value());
  EXPECT_TRUE(cache.lookup("a.test/1", 1299, out).has_value());
  // ...and expired at exactly store-time + TTL, not one second later.
  EXPECT_FALSE(cache.lookup("a.test/1", 1300, out).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(DnsCache, TtlIsMinAcrossRecordsClampedToConfig) {
  CacheConfig config;
  config.min_ttl_s = 60;
  config.max_ttl_s = 3600;
  DnsCache cache(config);

  CachedAnswer mixed = a_answer("m.test", 7200);
  mixed.answers.push_back(dns::ResourceRecord::a(
      *dns::Name::parse("m.test"), util::Ipv4(192, 0, 2, 2), 300));
  EXPECT_EQ(cache.ttl_for(mixed), 300u);  // min across records

  EXPECT_EQ(cache.ttl_for(a_answer("hi.test", 86400)), 3600u);  // clamped down
  EXPECT_EQ(cache.ttl_for(a_answer("lo.test", 1)), 60u);        // clamped up
}

TEST(DnsCache, NegativeEntriesUseBoundedNegativeTtl) {
  CacheConfig config;
  config.negative_ttl_s = 900;
  DnsCache cache(config);
  std::vector<dns::ResourceRecord> out;

  ASSERT_TRUE(cache.store("gone.test/1", nxdomain_answer(), 0));
  const auto hit = cache.lookup("gone.test/1", 899, out);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->rcode, dns::RCode::kNxDomain);
  EXPECT_FALSE(cache.lookup("gone.test/1", 900, out).has_value());

  // NODATA (NOERROR, empty answers) is the other RFC 2308 negative form.
  ASSERT_TRUE(cache.store("empty.test/28", CachedAnswer{}, 0));
  EXPECT_TRUE(cache.lookup("empty.test/28", 899, out).has_value());
  EXPECT_FALSE(cache.lookup("empty.test/28", 900, out).has_value());

  EXPECT_EQ(cache.stats().negative_hits, 2u);
}

TEST(DnsCache, ServfailIsNeverStored) {
  DnsCache cache;
  std::vector<dns::ResourceRecord> out;
  CachedAnswer servfail;
  servfail.rcode = dns::RCode::kServFail;
  EXPECT_FALSE(DnsCache::cacheable(dns::RCode::kServFail));
  EXPECT_FALSE(cache.store("down.test/1", servfail, 0));
  EXPECT_FALSE(cache.lookup("down.test/1", 0, out).has_value());
  EXPECT_EQ(cache.size(), 0u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.stores, 0u);
}

TEST(DnsCache, ShardCountClampsToPowerOfTwo) {
  CacheConfig config;
  config.shards = 13;
  EXPECT_EQ(DnsCache(config).shard_count(), 8u);
  config.shards = 0;
  EXPECT_EQ(DnsCache(config).shard_count(), 1u);
  config.shards = 4096;
  EXPECT_EQ(DnsCache(config).shard_count(), 256u);
}

TEST(DnsCache, KeysSpreadAcrossAllShards) {
  CacheConfig config;
  config.shards = 16;
  config.max_entries = 1 << 20;  // no eviction during this test
  DnsCache cache(config);
  constexpr int kKeys = 8192;
  for (int i = 0; i < kKeys; ++i) {
    const std::string name = "host" + std::to_string(i) + ".example/1";
    ASSERT_TRUE(cache.store(name, a_answer(name), 0));
  }
  const auto sizes = cache.shard_sizes();
  ASSERT_EQ(sizes.size(), 16u);
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}),
            static_cast<std::size_t>(kKeys));
  const double mean = static_cast<double>(kKeys) / 16.0;
  for (const std::size_t size : sizes) {
    EXPECT_GT(size, 0u);  // fnv1a reaches every shard
    EXPECT_LT(static_cast<double>(size), 2.0 * mean);
    EXPECT_GT(static_cast<double>(size), 0.5 * mean);
  }
}

TEST(DnsCache, EvictionIsLruAndDeterministic) {
  CacheConfig config;
  config.shards = 1;  // single shard: global LRU order
  config.max_entries = 3;
  DnsCache cache(config);
  std::vector<dns::ResourceRecord> out;

  ASSERT_TRUE(cache.store("a/1", a_answer("a"), 0));
  ASSERT_TRUE(cache.store("b/1", a_answer("b"), 0));
  ASSERT_TRUE(cache.store("c/1", a_answer("c"), 0));
  // Touch `a`: it becomes most-recent, `b` is now the LRU victim.
  ASSERT_TRUE(cache.lookup("a/1", 1, out).has_value());
  ASSERT_TRUE(cache.store("d/1", a_answer("d"), 1));

  EXPECT_FALSE(cache.lookup("b/1", 2, out).has_value());  // evicted
  EXPECT_TRUE(cache.lookup("a/1", 2, out).has_value());
  EXPECT_TRUE(cache.lookup("c/1", 2, out).has_value());
  EXPECT_TRUE(cache.lookup("d/1", 2, out).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 3u);

  // The eviction order is a pure function of the operation sequence: a
  // second cache driven identically ends in the same state.
  DnsCache replay(config);
  ASSERT_TRUE(replay.store("a/1", a_answer("a"), 0));
  ASSERT_TRUE(replay.store("b/1", a_answer("b"), 0));
  ASSERT_TRUE(replay.store("c/1", a_answer("c"), 0));
  ASSERT_TRUE(replay.lookup("a/1", 1, out).has_value());
  ASSERT_TRUE(replay.store("d/1", a_answer("d"), 1));
  EXPECT_EQ(replay.shard_sizes(), cache.shard_sizes());
  EXPECT_FALSE(replay.lookup("b/1", 2, out).has_value());
  EXPECT_EQ(replay.stats().evictions, cache.stats().evictions);
}

// The regression the old map could not pass: at the capacity boundary it
// flushed *everything*, so a hot key's hit rate collapsed to zero right
// after. With incremental LRU eviction the hot key stays resident through
// an arbitrarily long stream of cold inserts.
TEST(DnsCache, HotKeySurvivesCapacityBoundary) {
  CacheConfig config;
  config.shards = 4;
  config.max_entries = 64;
  DnsCache cache(config);
  std::vector<dns::ResourceRecord> out;

  // A TTL longer than the whole run, so only eviction could drop the key.
  ASSERT_TRUE(cache.store("hot.test/1", a_answer("hot.test", 86400), 0));
  std::uint64_t hot_hits = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::string cold = "cold" + std::to_string(i) + ".test/1";
    ASSERT_TRUE(cache.store(cold, a_answer(cold, 86400), i));
    if (cache.lookup("hot.test/1", i, out).has_value()) ++hot_hits;
  }
  // Far past the capacity boundary (1000 inserts into 64 slots), every
  // hot-key lookup still hit: each hit re-marks it most-recently-used.
  EXPECT_EQ(hot_hits, 1000u);
  EXPECT_GT(cache.stats().evictions, 900u);
  EXPECT_LE(cache.size(), 64u);
}

TEST(DnsCache, ServeStaleDisabledNeverAnswers) {
  DnsCache cache;  // serve_stale defaults off
  std::vector<dns::ResourceRecord> out;
  ASSERT_TRUE(cache.store("s.test/1", a_answer("s.test", 300), 0));
  EXPECT_FALSE(cache.lookup_stale("s.test/1", 100, out).has_value());
}

TEST(DnsCache, ServeStaleAnswersWithinWindowOnly) {
  CacheConfig config;
  config.serve_stale = true;
  config.max_stale_s = 3600;
  DnsCache cache(config);
  std::vector<dns::ResourceRecord> out;
  ASSERT_TRUE(cache.store("s.test/1", a_answer("s.test", 300), 0));

  // Still fresh: answered, but not counted (or flagged) as stale.
  const auto fresh = cache.lookup_stale("s.test/1", 299, out);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_FALSE(fresh->stale);
  EXPECT_EQ(cache.stats().stale_served, 0u);

  // Expired but within the RFC 8767 window: served and flagged stale.
  const auto stale = cache.lookup_stale("s.test/1", 300, out);
  ASSERT_TRUE(stale.has_value());
  EXPECT_TRUE(stale->stale);
  const auto late = cache.lookup_stale("s.test/1", 300 + 3599, out);
  ASSERT_TRUE(late.has_value());
  EXPECT_TRUE(late->stale);
  EXPECT_EQ(cache.stats().stale_served, 2u);

  // Lapsed past expiry + max_stale_s: too stale even for serve-stale.
  EXPECT_FALSE(cache.lookup_stale("s.test/1", 300 + 3600, out).has_value());
}

TEST(DnsCache, StoreRefreshesExistingEntry) {
  CacheConfig config;
  config.shards = 1;
  config.max_entries = 2;
  DnsCache cache(config);
  std::vector<dns::ResourceRecord> out;
  ASSERT_TRUE(cache.store("a/1", a_answer("a", 100), 0));
  ASSERT_TRUE(cache.store("b/1", a_answer("b", 100), 0));
  // Re-storing `a` refreshes in place (no eviction) and restarts its TTL.
  ASSERT_TRUE(cache.store("a/1", a_answer("a", 100), 50));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_TRUE(cache.lookup("a/1", 149, out).has_value());
  EXPECT_FALSE(cache.lookup("b/1", 100, out).has_value());
}

TEST(DnsCache, ClearEmptiesEveryShard) {
  DnsCache cache;
  for (int i = 0; i < 100; ++i) {
    const std::string name = "c" + std::to_string(i) + ".test/1";
    ASSERT_TRUE(cache.store(name, a_answer(name), 0));
  }
  ASSERT_EQ(cache.size(), 100u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  for (const std::size_t size : cache.shard_sizes()) EXPECT_EQ(size, 0u);
}

// Entries hold answers as wire bytes: every rdata shape the resolvers
// produce must come back from a lookup exactly as stored, owner-name
// spelling included.
TEST(DnsCache, RoundTripsEveryRdataShape) {
  util::Rng rng(1035);
  const auto owner = [&] { return dns::fuzz::random_name(rng); };
  const auto record = [&](dns::RrType type, dns::RData rdata) {
    dns::ResourceRecord rr;
    rr.name = owner();
    rr.type = type;
    rr.ttl = static_cast<std::uint32_t>(rng.range(1, 86400));
    rr.rdata = std::move(rdata);
    return rr;
  };
  dns::SoaData soa;
  soa.mname = owner();
  soa.rname = owner();
  soa.serial = 2019110401;
  std::vector<std::vector<dns::ResourceRecord>> shapes = {
      {record(dns::RrType::kA, util::Ipv4(192, 0, 2, 1)),
       record(dns::RrType::kA, util::Ipv4(198, 51, 100, 7))},
      {record(dns::RrType::kAaaa,
              dns::Ipv6Bytes{0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0,
                             0, 0, 0, 1})},
      {record(dns::RrType::kCname, owner()),
       record(dns::RrType::kA, util::Ipv4(203, 0, 113, 9))},
      {record(dns::RrType::kNs, owner()), record(dns::RrType::kNs, owner())},
      {record(dns::RrType::kPtr, owner())},
      {record(dns::RrType::kTxt, dns::TxtData{"v=spf1 -all", "", "MiXeD"})},
      {record(dns::RrType::kSoa, soa)},
      {record(static_cast<dns::RrType>(99), dns::RawData{0xde, 0xad, 0xbe})},
  };
  for (int i = 0; i < 16; ++i)  // mixed-case names from the fuzz alphabet
    shapes.push_back({dns::fuzz::random_record(rng), dns::fuzz::random_record(rng)});

  DnsCache cache;
  std::vector<dns::ResourceRecord> out;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const std::string key = "shape" + std::to_string(i) + ".test/1";
    CachedAnswer answer;
    answer.answers = shapes[i];
    ASSERT_TRUE(cache.store(key, answer, 0));
    const auto hit = cache.lookup(key, 1, out);
    ASSERT_TRUE(hit.has_value()) << key;
    EXPECT_EQ(hit->rcode, dns::RCode::kNoError);
    ASSERT_EQ(out.size(), shapes[i].size()) << key;
    for (std::size_t r = 0; r < out.size(); ++r) {
      EXPECT_EQ(out[r].name.labels(), shapes[i][r].name.labels()) << key;
      EXPECT_EQ(out[r].type, shapes[i][r].type) << key;
      EXPECT_EQ(out[r].klass, shapes[i][r].klass) << key;
      EXPECT_EQ(out[r].ttl, shapes[i][r].ttl) << key;
      EXPECT_EQ(out[r].rdata, shapes[i][r].rdata) << key;
    }
  }
}

TEST(CachedAnswerCodec, RejectsMalformedAndForeignSections) {
  CachedAnswer answer = a_answer("codec.test");
  std::vector<std::uint8_t> wire;
  encode_cached_answer(answer, wire);
  dns::RCode rcode = dns::RCode::kServFail;
  std::vector<dns::ResourceRecord> out;
  ASSERT_TRUE(decode_cached_answer(wire, rcode, out));
  EXPECT_EQ(rcode, dns::RCode::kNoError);
  ASSERT_EQ(out.size(), 1u);

  wire.pop_back();  // truncated rdata
  EXPECT_FALSE(decode_cached_answer(wire, rcode, out));

  dns::Message with_question;  // a valid message, but not a cached answer
  with_question.header.qr = true;
  with_question.questions.push_back(
      dns::Question{*dns::Name::parse("codec.test"), dns::RrType::kA,
                    dns::RrClass::kIn});
  with_question.answers = answer.answers;
  EXPECT_FALSE(
      decode_cached_answer(with_question.encode(/*compress=*/false), rcode, out));
}

// The slab, its u32 LRU links and the backward-shift index deletions must
// reproduce a textbook LRU exactly: drive both with one random operation
// stream over a small key space and compare every outcome.
TEST(DnsCache, ChurnMatchesReferenceLru) {
  CacheConfig config;
  config.shards = 1;
  config.max_entries = 24;
  DnsCache cache(config);
  std::list<std::string> reference;  // front = most recently used
  std::vector<dns::ResourceRecord> out;
  util::Rng rng(7858);
  std::uint64_t reference_evictions = 0;
  for (int op = 0; op < 20000; ++op) {
    const std::string key = "k" + std::to_string(rng.below(64)) + ".test/1";
    const auto it = std::find(reference.begin(), reference.end(), key);
    if (rng.chance(0.5)) {
      const bool hit = cache.lookup(key, 0, out).has_value();
      ASSERT_EQ(hit, it != reference.end()) << "op " << op;
      if (hit) reference.splice(reference.begin(), reference, it);
    } else {
      ASSERT_TRUE(cache.store(key, a_answer(key, 86400), 0));
      if (it != reference.end()) {
        reference.erase(it);
      } else if (reference.size() == config.max_entries) {
        reference.pop_back();
        ++reference_evictions;
      }
      reference.push_front(key);
    }
  }
  EXPECT_EQ(cache.size(), reference.size());
  EXPECT_EQ(cache.stats().evictions, reference_evictions);
  for (const auto& key : reference)
    EXPECT_TRUE(cache.lookup(key, 0, out).has_value()) << key;
}

TEST(DnsCache, ExportMergePassesWireBytesThrough) {
  CacheConfig config;
  config.shards = 1;
  config.max_entries = 4;
  DnsCache source(config);
  for (int i = 0; i < 6; ++i) {
    const std::string key = "m" + std::to_string(i) + ".test/1";
    ASSERT_TRUE(source.store(key, a_answer(key, 600), i));
  }
  const auto exported = source.export_entries(nullptr);
  ASSERT_EQ(exported.size(), 4u);
  EXPECT_EQ(exported.front().key, "m5.test/1");  // most recent first
  std::vector<std::uint8_t> expected;
  encode_cached_answer(a_answer("m5.test/1", 600), expected);
  EXPECT_EQ(exported.front().wire, expected);

  // Merging twice the capacity leaves the shard over its slice; the next
  // store trims it back, counting every entry it drops as an eviction.
  DnsCache target(config);
  target.merge_entries(exported);
  EXPECT_EQ(target.export_entries(nullptr).front().wire, expected);
  std::vector<ExportedEntry> more = exported;
  for (auto& entry : more) entry.key.insert(0, "x");
  target.merge_entries(more);
  EXPECT_EQ(target.size(), 8u);
  ASSERT_TRUE(target.store("fresh.test/1", a_answer("fresh.test", 600), 0));
  EXPECT_EQ(target.size(), 4u);
  EXPECT_EQ(target.stats().evictions, 5u);
  std::vector<dns::ResourceRecord> out;
  EXPECT_TRUE(target.lookup("fresh.test/1", 1, out).has_value());
  EXPECT_TRUE(target.lookup("m5.test/1", 1, out).has_value());
  EXPECT_FALSE(target.lookup("m2.test/1", 1, out).has_value());  // LRU tail
}

TEST(CacheConfig, EnvironmentOverrides) {
  CacheConfig fallback;
  fallback.max_entries = 1000;
  fallback.negative_ttl_s = 900;
  fallback.serve_stale = false;

  ::setenv("ENCDNS_CACHE_ENTRIES", "5000", 1);
  ::setenv("ENCDNS_CACHE_NEG_TTL", "60", 1);
  ::setenv("ENCDNS_CACHE_SERVE_STALE", "on", 1);
  const CacheConfig overridden = CacheConfig::from_env(fallback);
  EXPECT_EQ(overridden.max_entries, 5000u);
  EXPECT_EQ(overridden.negative_ttl_s, 60u);
  EXPECT_TRUE(overridden.serve_stale);

  // Garbage values abort loudly (DESIGN.md §13) instead of poisoning the
  // config or being silently ignored.
  ::setenv("ENCDNS_CACHE_ENTRIES", "-3", 1);
  EXPECT_THROW((void)CacheConfig::from_env(fallback), util::EnvError);
  ::unsetenv("ENCDNS_CACHE_ENTRIES");
  ::setenv("ENCDNS_CACHE_NEG_TTL", "junk", 1);
  EXPECT_THROW((void)CacheConfig::from_env(fallback), util::EnvError);
  ::unsetenv("ENCDNS_CACHE_NEG_TTL");
  ::setenv("ENCDNS_CACHE_SERVE_STALE", "maybe", 1);
  EXPECT_THROW((void)CacheConfig::from_env(fallback), util::EnvError);

  ::unsetenv("ENCDNS_CACHE_ENTRIES");
  ::unsetenv("ENCDNS_CACHE_NEG_TTL");
  ::unsetenv("ENCDNS_CACHE_SERVE_STALE");
  const CacheConfig untouched = CacheConfig::from_env(fallback);
  EXPECT_EQ(untouched.max_entries, 1000u);
  EXPECT_FALSE(untouched.serve_stale);
}

}  // namespace
}  // namespace encdns::cache
