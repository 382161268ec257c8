#include "cache/dns_cache.hpp"

#include <algorithm>
#include <stdexcept>

#include "dns/wire.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace encdns::cache {
namespace {

[[nodiscard]] std::size_t floor_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

/// Decode an entry's answer into `answers`. Entries hold only bytes the
/// cache encoded itself or that the journal decoder already accepted, so a
/// failure here is a broken invariant, not bad input.
dns::RCode decode_entry(std::span<const std::uint8_t> wire,
                        std::vector<dns::ResourceRecord>& answers) {
  dns::RCode rcode = dns::RCode::kNoError;
  if (!decode_cached_answer(wire, rcode, answers))
    throw std::logic_error("cache entry does not decode");
  return rcode;
}

}  // namespace

void encode_cached_answer(const CachedAnswer& answer,
                          std::vector<std::uint8_t>& out) {
  dns::Header header;
  header.qr = true;
  header.rcode = answer.rcode;
  dns::WireWriter writer(out);
  dns::encode_answers_into(writer, header, answer.answers, /*compress=*/false);
}

bool decode_cached_answer(std::span<const std::uint8_t> wire, dns::RCode& rcode,
                          std::vector<dns::ResourceRecord>& answers) {
  // Decode through a Message that borrows the caller's records for its
  // answer section; its other sections stay empty (and unallocated) for
  // every well-formed entry.
  dns::Message message;
  message.answers.swap(answers);
  const bool ok = dns::Message::decode_into(wire, message);
  answers.swap(message.answers);
  if (!ok || !message.questions.empty() || !message.authorities.empty() ||
      !message.additionals.empty())
    return false;
  rcode = message.header.rcode;
  return true;
}

CacheConfig CacheConfig::from_env(CacheConfig fallback) {
  // Strict parsing (DESIGN.md §13): ENCDNS_CACHE_ENTRIES=10k used to be
  // atoll'd to 10 and ENCDNS_CACHE_ENTRIES=junk silently ignored; both now
  // throw util::EnvError before any backend is built.
  if (const auto env = util::env_positive_int("ENCDNS_CACHE_ENTRIES"))
    fallback.max_entries = static_cast<std::size_t>(*env);
  if (const auto env = util::env_positive_int("ENCDNS_CACHE_NEG_TTL"))
    fallback.negative_ttl_s = static_cast<std::uint32_t>(*env);
  if (const auto env = util::env_bool("ENCDNS_CACHE_SERVE_STALE"))
    fallback.serve_stale = *env;
  return fallback;
}

DnsCache::DnsCache(CacheConfig config) : config_(config) {
  const std::size_t shard_count =
      floor_pow2(std::clamp<std::size_t>(config_.shards, 1, 256));
  config_.shards = shard_count;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i)
    shards_.push_back(std::make_unique<Shard>());
  shard_mask_ = shard_count - 1;
  per_shard_capacity_ =
      std::max<std::size_t>(1, config_.max_entries / shard_count);

  auto& registry = obs::MetricsRegistry::global();
  obs_hit_ = &registry.counter("cache.lookup.hit");
  obs_negative_ = &registry.counter("cache.lookup.negative_hit");
  obs_miss_ = &registry.counter("cache.lookup.miss");
  obs_stale_ = &registry.counter("cache.lookup.stale");
  obs_store_ = &registry.counter("cache.entry.store");
  obs_evict_ = &registry.counter("cache.entry.evict");
  obs_reject_ = &registry.counter("cache.entry.reject");
}

// --- shard slab: LRU links and the open-addressing index --------------------

std::uint32_t DnsCache::Shard::find(std::string_view key,
                                    std::uint32_t hash) const noexcept {
  if (index.empty()) return kNil;
  const std::size_t mask = index.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const std::uint32_t slot = index[i];
    if (slot == 0) return kNil;
    const Entry& entry = slab[slot - 1];
    if (entry.hash == hash && entry.key() == key) return slot - 1;
  }
}

void DnsCache::Shard::index_insert(std::uint32_t pos) {
  // `live` already counts the entry being indexed.
  if (live * 2 > index.size()) {
    // Keep the load at most one half: double and re-place every member.
    std::vector<std::uint32_t> grown(std::max<std::size_t>(8, index.size() * 2));
    const std::size_t mask = grown.size() - 1;
    for (const std::uint32_t slot : index) {
      if (slot == 0) continue;
      std::size_t i = slab[slot - 1].hash & mask;
      while (grown[i] != 0) i = (i + 1) & mask;
      grown[i] = slot;
    }
    index.swap(grown);
  }
  const std::size_t mask = index.size() - 1;
  std::size_t i = slab[pos].hash & mask;
  while (index[i] != 0) i = (i + 1) & mask;
  index[i] = pos + 1;
}

void DnsCache::Shard::index_erase(std::uint32_t pos) noexcept {
  const std::size_t mask = index.size() - 1;
  std::size_t hole = slab[pos].hash & mask;
  while (index[hole] != pos + 1) hole = (hole + 1) & mask;
  // Backward-shift deletion (no tombstones): a later member of the probe run
  // moves into the hole unless its home slot lies cyclically in (hole, j].
  for (std::size_t j = (hole + 1) & mask; index[j] != 0; j = (j + 1) & mask) {
    const std::size_t home = slab[index[j] - 1].hash & mask;
    const bool stays = hole < j ? (home > hole && home <= j)
                                : (home > hole || home <= j);
    if (!stays) {
      index[hole] = index[j];
      hole = j;
    }
  }
  index[hole] = 0;
}

void DnsCache::Shard::unlink(std::uint32_t pos) noexcept {
  Entry& entry = slab[pos];
  (entry.prev != kNil ? slab[entry.prev].next : head) = entry.next;
  (entry.next != kNil ? slab[entry.next].prev : tail) = entry.prev;
  entry.prev = entry.next = kNil;
}

void DnsCache::Shard::link_front(std::uint32_t pos) noexcept {
  Entry& entry = slab[pos];
  entry.prev = kNil;
  entry.next = head;
  (head != kNil ? slab[head].prev : tail) = pos;
  head = pos;
}

void DnsCache::Shard::link_back(std::uint32_t pos) noexcept {
  Entry& entry = slab[pos];
  entry.next = kNil;
  entry.prev = tail;
  (tail != kNil ? slab[tail].next : head) = pos;
  tail = pos;
}

std::uint32_t DnsCache::Shard::allocate() {
  if (free != kNil) {
    const std::uint32_t pos = free;
    free = slab[pos].next;
    slab[pos].next = kNil;
    return pos;
  }
  slab.emplace_back();
  return static_cast<std::uint32_t>(slab.size() - 1);
}

// --- DnsCache ----------------------------------------------------------------

DnsCache::Located DnsCache::locate(std::string_view key) const noexcept {
  const std::uint64_t hash = util::fnv1a(key);
  return {shards_[hash & shard_mask_].get(),
          static_cast<std::uint32_t>(hash >> 32)};
}

std::uint32_t DnsCache::ttl_for(const CachedAnswer& answer) const noexcept {
  if (answer.negative()) return config_.negative_ttl_s;
  std::uint32_t ttl = config_.max_ttl_s;
  for (const auto& record : answer.answers) ttl = std::min(ttl, record.ttl);
  return std::max(ttl, config_.min_ttl_s);
}

std::optional<DnsCache::Hit> DnsCache::lookup(
    std::string_view key, std::int64_t now_s,
    std::vector<dns::ResourceRecord>& answers) {
  const Located at = locate(key);
  Shard& shard = *at.shard;
  std::optional<Hit> hit;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const std::uint32_t pos = shard.find(key, at.hash);
    if (pos != kNil && now_s < shard.slab[pos].expiry_s) {
      shard.unlink(pos);
      shard.link_front(pos);
      hit = Hit{decode_entry(shard.slab[pos].wire(), answers), /*stale=*/false};
    }
  }
  if (!hit) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    obs_miss_->add();
    return hit;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  obs_hit_->add();
  if (negative_answer(hit->rcode, answers)) {
    negative_hits_.fetch_add(1, std::memory_order_relaxed);
    obs_negative_->add();
  }
  return hit;
}

std::optional<DnsCache::Hit> DnsCache::lookup_stale(
    std::string_view key, std::int64_t now_s,
    std::vector<dns::ResourceRecord>& answers) {
  if (!config_.serve_stale) return std::nullopt;
  const Located at = locate(key);
  Shard& shard = *at.shard;
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const std::uint32_t pos = shard.find(key, at.hash);
  if (pos == kNil) return std::nullopt;
  const Entry& entry = shard.slab[pos];
  if (now_s >= entry.expiry_s + static_cast<std::int64_t>(config_.max_stale_s))
    return std::nullopt;  // too stale even for RFC 8767
  const Hit hit{decode_entry(entry.wire(), answers),
                /*stale=*/now_s >= entry.expiry_s};
  if (hit.stale) {
    stale_served_.fetch_add(1, std::memory_order_relaxed);
    obs_stale_->add();
  }
  return hit;
}

bool DnsCache::store(std::string_view key, const CachedAnswer& answer,
                     std::int64_t now_s) {
  if (!cacheable(answer.rcode)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    obs_reject_->add();
    return false;
  }
  const std::int64_t expiry =
      now_s + static_cast<std::int64_t>(ttl_for(answer));
  // Attribute the entry to the storing phase (task-graph checkpointing,
  // DESIGN.md §15): one thread-local read, free on the hot path.
  const void* owner = obs::current_tally();
  // Encode key + answer once, outside the shard lock, into per-thread
  // scratch; the entry's buffer then takes a copy (reusing its capacity).
  thread_local std::vector<std::uint8_t> bytes;
  bytes.assign(key.begin(), key.end());
  encode_cached_answer(answer, bytes);

  const Located at = locate(key);
  Shard& shard = *at.shard;
  std::uint64_t evicted = 0;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    std::uint32_t pos = shard.find(key, at.hash);
    const bool insert = pos == kNil;
    if (!insert) {
      shard.unlink(pos);  // refresh in place, then bump to most-recent
    } else {
      while (shard.live > per_shard_capacity_) {
        // merge_entries() may leave a shard over its slice: trim to it.
        const std::uint32_t victim = shard.tail;
        shard.unlink(victim);
        shard.index_erase(victim);
        shard.slab[victim].next = shard.free;
        shard.free = victim;
        --shard.live;
        ++evicted;
      }
      if (shard.live == per_shard_capacity_) {
        // Evict the LRU tail; the new entry takes over its slot and buffer.
        pos = shard.tail;
        shard.unlink(pos);
        shard.index_erase(pos);
        ++evicted;
      } else {
        pos = shard.allocate();
        ++shard.live;
      }
    }
    Entry& entry = shard.slab[pos];
    entry.bytes.assign(bytes.begin(), bytes.end());
    entry.key_len = static_cast<std::uint32_t>(key.size());
    entry.hash = at.hash;
    entry.expiry_s = expiry;
    entry.owner = owner;
    if (insert) shard.index_insert(pos);
    shard.link_front(pos);
  }
  stores_.fetch_add(1, std::memory_order_relaxed);
  obs_store_->add();
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    obs_evict_->add(evicted);
  }
  return true;
}

std::size_t DnsCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->live;
  }
  return total;
}

std::vector<std::size_t> DnsCache::shard_sizes() const {
  std::vector<std::size_t> sizes;
  sizes.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    sizes.push_back(shard->live);
  }
  return sizes;
}

CacheStats DnsCache::stats() const noexcept {
  CacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.negative_hits = negative_hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.stale_served = stale_served_.load(std::memory_order_relaxed);
  stats.stores = stores_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  return stats;
}

void DnsCache::clear() {
  for (auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->slab = {};
    shard->index = {};
    shard->head = shard->tail = shard->free = kNil;
    shard->live = 0;
  }
}

std::vector<ExportedEntry> DnsCache::export_entries(const void* owner) const {
  std::vector<ExportedEntry> out;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    for (std::uint32_t pos = shard->head; pos != kNil;
         pos = shard->slab[pos].next) {
      const Entry& entry = shard->slab[pos];
      if (entry.owner != owner) continue;
      const auto wire = entry.wire();
      out.push_back(ExportedEntry{std::string(entry.key()),
                                  {wire.begin(), wire.end()},
                                  entry.expiry_s});
    }
  }
  return out;
}

void DnsCache::merge_entries(const std::vector<ExportedEntry>& entries) {
  const void* owner = obs::current_tally();
  for (const auto& exported : entries) {
    const Located at = locate(exported.key);
    Shard& shard = *at.shard;
    const std::lock_guard<std::mutex> lock(shard.mutex);
    std::uint32_t pos = shard.find(exported.key, at.hash);
    const bool insert = pos == kNil;
    if (insert) {
      pos = shard.allocate();
      ++shard.live;
    }
    Entry& entry = shard.slab[pos];
    entry.bytes.assign(exported.key.begin(), exported.key.end());
    entry.bytes.insert(entry.bytes.end(), exported.wire.begin(),
                       exported.wire.end());
    entry.key_len = static_cast<std::uint32_t>(exported.key.size());
    entry.hash = at.hash;
    entry.expiry_s = exported.expiry_s;
    entry.owner = owner;
    if (insert) {
      shard.index_insert(pos);
      shard.link_back(pos);
    }
  }
}

}  // namespace encdns::cache
