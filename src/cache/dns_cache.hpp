// Sharded, TTL-aware DNS record cache (DESIGN.md §10).
//
// This replaces the resolver backends' old single-mutex map, which had three
// correctness defects: it wiped *everything* when full (a latency cliff for
// every concurrent client), it expired entries on civil-day boundaries
// regardless of record TTL, and it cached SERVFAIL upstream answers for a
// full day — RFC 2308 permits negative caching only for NXDOMAIN/NODATA,
// with a bounded TTL, and never for server failures.
//
// Design:
//   * Sharding — keys hash (fnv1a) onto a power-of-two shard array; each
//     shard holds its own mutex, hash index and LRU list, so concurrent
//     sessions contend only when they collide on a shard.
//   * Storage — each shard is a flat slab of entries. An entry holds its key
//     and its answer as one byte buffer: the key, then the answer as an
//     uncompressed DNS wire message (the cached-answer codec below, which is
//     also the checkpoint journal's form). LRU links are u32 slab positions,
//     and an open-addressing index of slab positions is probed with the high
//     half of the same fnv1a hash that picked the shard. Lookups decode the
//     records straight into caller-owned storage.
//   * Eviction — when a shard reaches its capacity slice it evicts its
//     least-recently-used entry, one at a time, and the new entry takes over
//     the victim's slab slot and byte buffer. A full cache degrades
//     marginally (cold tail entries churn) instead of collapsing to a 0%
//     hit rate the way flush-on-full did.
//   * TTL — positive entries live for the minimum TTL across the answer's
//     records, clamped to [min_ttl_s, max_ttl_s]. Negative entries
//     (NXDOMAIN, or NOERROR with no records = NODATA) live for the bounded
//     negative_ttl_s (RFC 2308 §5). SERVFAIL and other error rcodes are
//     never stored.
//   * Serve-stale (RFC 8767) — optionally, entries that expired less than
//     max_stale_s ago can still be served via lookup_stale() when the
//     caller knows its upstream is failing.
//
// Determinism contract: all tallies are commutative atomics (summed obs
// counters), so totals are bit-identical for any thread count provided the
// workload's per-request hit/miss outcome is schedule-independent — unique
// or popular query names and a capacity at least the working-set size, the
// same contract the measurement experiments already relied on. Eviction
// order within a shard is a pure function of the operation sequence applied
// to it, which is what the deterministic-eviction unit tests pin down; but
// once a cache evicts, that sequence is the interleaving of concurrent
// sessions, so which entries survive, and every later hit/miss, varies
// from run to run. A full-scale study evicts (~330k entries), and its
// cache counters are therefore not reproducible; quick scale never evicts.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dns/message.hpp"
#include "dns/types.hpp"

namespace encdns::obs {
class Counter;
}  // namespace encdns::obs

namespace encdns::cache {

/// Tuning knobs. README "Resolver cache" documents the user-facing subset;
/// every field has an ENCDNS_* environment override via from_env().
struct CacheConfig {
  /// Total entry budget, divided evenly across shards (each shard evicts
  /// independently once its slice is full).
  std::size_t max_entries = 200000;
  /// Number of shards; clamped to a power of two in [1, 256].
  std::size_t shards = 16;
  /// Positive-entry TTL clamp (seconds).
  std::uint32_t min_ttl_s = 1;
  std::uint32_t max_ttl_s = 86400;
  /// RFC 2308 bounded negative TTL for NXDOMAIN/NODATA entries (seconds).
  std::uint32_t negative_ttl_s = 900;
  /// RFC 8767 serve-stale: answer from expired entries (within the window
  /// below) when the caller reports upstream failure. Off by default.
  bool serve_stale = false;
  std::uint32_t max_stale_s = 3600;

  /// Environment overrides, applied over `fallback`:
  ///   ENCDNS_CACHE_ENTRIES      — max_entries (positive integer)
  ///   ENCDNS_CACHE_NEG_TTL      — negative_ttl_s (seconds)
  ///   ENCDNS_CACHE_SERVE_STALE  — "on"/"1"/"true" or "off"/"0"/"false"
  [[nodiscard]] static CacheConfig from_env(CacheConfig fallback);
};

/// Negatively cacheable content per RFC 2308: name error or no data.
[[nodiscard]] inline bool negative_answer(
    dns::RCode rcode, const std::vector<dns::ResourceRecord>& answers) noexcept {
  return rcode == dns::RCode::kNxDomain ||
         (rcode == dns::RCode::kNoError && answers.empty());
}

/// The cached payload: what a resolver needs to rebuild a response. Mirrors
/// resolver::Answer without depending on the resolver library (the resolver
/// depends on this module, not the other way around).
struct CachedAnswer {
  dns::RCode rcode = dns::RCode::kNoError;
  std::vector<dns::ResourceRecord> answers;

  [[nodiscard]] bool negative() const noexcept {
    return negative_answer(rcode, answers);
  }
};

/// The one codec for a cached answer (DESIGN.md §10, §13): an uncompressed
/// RFC 1035 message whose header carries qr and the rcode and whose only
/// section is the answer records. Cache entries hold it and checkpoint
/// journals carry the same bytes. Appends to `out`.
void encode_cached_answer(const CachedAnswer& answer,
                          std::vector<std::uint8_t>& out);

/// Decode `wire` into `rcode` and `answers`, reusing the vector's records
/// (names, rdata storage) so a warmed vector decodes without allocating.
/// Returns false on malformed input or on any section other than answers.
[[nodiscard]] bool decode_cached_answer(std::span<const std::uint8_t> wire,
                                        dns::RCode& rcode,
                                        std::vector<dns::ResourceRecord>& answers);

/// One cache entry in checkpoint-export form (DESIGN.md §13).
struct ExportedEntry {
  std::string key;
  std::vector<std::uint8_t> wire;  // encode_cached_answer() bytes
  std::int64_t expiry_s = 0;
};

/// Order-independent tallies (every field is a sum of per-operation
/// increments, so totals are thread-count invariant).
struct CacheStats {
  std::uint64_t hits = 0;           // fresh lookups answered
  std::uint64_t negative_hits = 0;  // subset of hits from negative entries
  std::uint64_t misses = 0;         // fresh lookups not answered
  std::uint64_t stale_served = 0;   // lookup_stale answers (RFC 8767)
  std::uint64_t stores = 0;         // inserts + refreshes
  std::uint64_t evictions = 0;      // LRU evictions at capacity
  std::uint64_t rejected = 0;       // uncacheable stores (SERVFAIL etc.)
};

class DnsCache {
 public:
  explicit DnsCache(CacheConfig config = {});
  DnsCache(const DnsCache&) = delete;
  DnsCache& operator=(const DnsCache&) = delete;

  struct Hit {
    dns::RCode rcode = dns::RCode::kNoError;
    bool stale = false;  // true only from lookup_stale()
  };

  /// Fresh lookup: answers iff the entry exists and now_s is strictly before
  /// its expiry, decoding its records into `answers` (storage reused; left
  /// untouched on a miss). A hit refreshes the entry's LRU position; a
  /// lookup of an expired entry does not (expired entries age out of the
  /// shard).
  [[nodiscard]] std::optional<Hit> lookup(
      std::string_view key, std::int64_t now_s,
      std::vector<dns::ResourceRecord>& answers);

  /// RFC 8767 stale lookup: answers from an *expired* entry that lapsed no
  /// more than max_stale_s ago. Also answers fresh entries (a caller that
  /// lost its upstream should still get the best local answer). Returns
  /// nullopt whenever serve_stale is disabled. Decodes like lookup().
  [[nodiscard]] std::optional<Hit> lookup_stale(
      std::string_view key, std::int64_t now_s,
      std::vector<dns::ResourceRecord>& answers);

  /// Store (insert or refresh) if the answer is cacheable; SERVFAIL and
  /// other error rcodes are rejected per RFC 2308. Returns whether stored.
  /// The answer is encoded once, outside the shard lock; an evicting store
  /// reuses the victim's slab slot and byte buffer.
  bool store(std::string_view key, const CachedAnswer& answer,
             std::int64_t now_s);

  /// Whether an rcode may be cached at all.
  [[nodiscard]] static bool cacheable(dns::RCode rcode) noexcept {
    return rcode == dns::RCode::kNoError || rcode == dns::RCode::kNxDomain;
  }

  /// Effective lifetime for an answer under this config: the bounded
  /// negative TTL for negative content, else min-across-records clamped to
  /// [min_ttl_s, max_ttl_s].
  [[nodiscard]] std::uint32_t ttl_for(const CachedAnswer& answer) const noexcept;

  [[nodiscard]] std::size_t size() const;
  /// Live entry count per shard (diagnostics + shard-distribution tests).
  [[nodiscard]] std::vector<std::size_t> shard_sizes() const;
  [[nodiscard]] CacheStats stats() const noexcept;
  [[nodiscard]] const CacheConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t per_shard_capacity() const noexcept {
    return per_shard_capacity_;
  }

  void clear();

  /// Checkpoint export (DESIGN.md §13, §15): shard by shard in index order,
  /// most-recently-used first, only the entries whose last store happened
  /// under the attribution token
  /// `owner` (the storing thread's obs::current_tally() pointer). Under
  /// phase overlap a full-contents capture is polluted by concurrent
  /// phases' stores; each phase's record must carry its own stores only.
  [[nodiscard]] std::vector<ExportedEntry> export_entries(
      const void* owner) const;

  /// Additive restore for owner-filtered captures: existing keys refresh in
  /// place (keeping their LRU position), new keys append least-recent in
  /// the given order. Merged entries are attributed to the calling thread's
  /// obs::current_tally(), exactly as if it had stored them. The wire bytes
  /// are taken as they are: callers pass export_entries() output or bytes
  /// that decode_cached_answer() accepted (the journal decoder checks them).
  void merge_entries(const std::vector<ExportedEntry>& entries);

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Entry {
    /// The key, then the answer's encode_cached_answer() bytes.
    std::vector<std::uint8_t> bytes;
    std::int64_t expiry_s = 0;
    /// Attribution token of the last store (obs::current_tally() of the
    /// storing thread; null outside any phase). Never dereferenced — only
    /// compared by export_entries(owner).
    const void* owner = nullptr;
    std::uint32_t hash = 0;  // high half of the key's fnv1a: index probe
    std::uint32_t key_len = 0;
    std::uint32_t prev = kNil;  // towards the most recently used
    std::uint32_t next = kNil;  // towards the LRU tail; free-list link

    [[nodiscard]] std::string_view key() const noexcept {
      return {reinterpret_cast<const char*>(bytes.data()), key_len};
    }
    [[nodiscard]] std::span<const std::uint8_t> wire() const noexcept {
      return std::span<const std::uint8_t>(bytes).subspan(key_len);
    }
  };
  struct Shard {
    mutable std::mutex mutex;
    std::vector<Entry> slab;
    /// Open addressing, linear probing: slab position + 1, 0 = empty. The
    /// size is a power of two holding at most half live slots.
    std::vector<std::uint32_t> index;
    std::uint32_t head = kNil;  // most recently used
    std::uint32_t tail = kNil;  // least recently used
    std::uint32_t free = kNil;  // slab slots released by over-capacity trims
    std::size_t live = 0;

    [[nodiscard]] std::uint32_t find(std::string_view key,
                                     std::uint32_t hash) const noexcept;
    void index_insert(std::uint32_t pos);
    void index_erase(std::uint32_t pos) noexcept;
    void unlink(std::uint32_t pos) noexcept;
    void link_front(std::uint32_t pos) noexcept;
    void link_back(std::uint32_t pos) noexcept;
    [[nodiscard]] std::uint32_t allocate();
  };
  /// Key hash for one operation: the low bits pick the shard, the high half
  /// probes the shard's index.
  struct Located {
    Shard* shard;
    std::uint32_t hash;
  };

  [[nodiscard]] Located locate(std::string_view key) const noexcept;

  CacheConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_mask_ = 0;
  std::size_t per_shard_capacity_ = 1;

  // Local tallies (exact, per-instance) plus process-wide obs counters
  // ("cache.lookup.*" / "cache.entry.*", DESIGN.md §9 naming) cached at
  // construction so hot paths never take the registry mutex.
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> negative_hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> stale_served_{0};
  std::atomic<std::uint64_t> stores_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> rejected_{0};
  obs::Counter* obs_hit_;
  obs::Counter* obs_negative_;
  obs::Counter* obs_miss_;
  obs::Counter* obs_stale_;
  obs::Counter* obs_store_;
  obs::Counter* obs_evict_;
  obs::Counter* obs_reject_;
};

}  // namespace encdns::cache
