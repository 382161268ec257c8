#include "cache/dns_cache.hpp"

#include <algorithm>

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

}  // namespace

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

DnsCache::Shard& DnsCache::shard_for(std::string_view key) noexcept {
  return *shards_[util::fnv1a(key) & shard_mask_];
}

const DnsCache::Shard& DnsCache::shard_for(std::string_view key) const noexcept {
  return *shards_[util::fnv1a(key) & shard_mask_];
}

std::uint32_t DnsCache::ttl_for(const CachedAnswer& answer) const noexcept {
  if (answer.negative()) return config_.negative_ttl_s;
  std::uint32_t ttl = config_.max_ttl_s;
  for (const auto& record : answer.answers) ttl = std::min(ttl, record.ttl);
  return std::max(ttl, config_.min_ttl_s);
}

std::optional<DnsCache::Hit> DnsCache::lookup(std::string_view key,
                                              std::int64_t now_s) {
  Shard& shard = shard_for(key);
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end() && now_s < it->second->expiry_s) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      Hit hit{it->second->answer, /*stale=*/false};
      hits_.fetch_add(1, std::memory_order_relaxed);
      obs_hit_->add();
      if (hit.answer.negative()) {
        negative_hits_.fetch_add(1, std::memory_order_relaxed);
        obs_negative_->add();
      }
      return hit;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  obs_miss_->add();
  return std::nullopt;
}

std::optional<DnsCache::Hit> DnsCache::lookup_stale(std::string_view key,
                                                    std::int64_t now_s) {
  if (!config_.serve_stale) return std::nullopt;
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return std::nullopt;
  const std::int64_t expiry = it->second->expiry_s;
  if (now_s >= expiry + static_cast<std::int64_t>(config_.max_stale_s))
    return std::nullopt;  // too stale even for RFC 8767
  Hit hit{it->second->answer, /*stale=*/now_s >= expiry};
  if (hit.stale) {
    stale_served_.fetch_add(1, std::memory_order_relaxed);
    obs_stale_->add();
  }
  return hit;
}

bool DnsCache::store(std::string_view key, const CachedAnswer& answer,
                     std::int64_t now_s) {
  return store(key, CachedAnswer(answer), now_s);
}

bool DnsCache::store(std::string_view key, CachedAnswer&& answer,
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
  Shard& shard = shard_for(key);
  std::uint64_t evicted = 0;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Refresh in place and bump to most-recent.
      it->second->answer = std::move(answer);
      it->second->expiry_s = expiry;
      it->second->owner = owner;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else if (shard.lru.size() >= per_shard_capacity_) {
      // Incremental eviction, recycling the victim's storage (DESIGN.md §12):
      // instead of erase+insert — three allocations per store once the shard
      // is full, the steady state of unique-name workloads — the LRU victim's
      // list node is spliced to the front, its key string and answer storage
      // are rebuilt in place, and its index node is re-keyed via extract().
      // The logical outcome (evict back, insert front) is identical.
      while (shard.lru.size() > per_shard_capacity_) {
        // Capacity shrank since the last store: trim the extras the old way.
        shard.index.erase(shard.lru.back().key);
        shard.lru.pop_back();
        ++evicted;
      }
      auto node = shard.index.extract(shard.lru.back().key);
      shard.lru.splice(shard.lru.begin(), shard.lru, std::prev(shard.lru.end()));
      ++evicted;
      Entry& entry = shard.lru.front();
      entry.key.assign(key);
      entry.answer = std::move(answer);
      entry.expiry_s = expiry;
      entry.owner = owner;
      node.key().assign(key);
      node.mapped() = shard.lru.begin();
      shard.index.insert(std::move(node));
    } else {
      shard.lru.push_front(
          Entry{std::string(key), std::move(answer), expiry, owner});
      shard.index.emplace(shard.lru.front().key, shard.lru.begin());
    }
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
    total += shard->lru.size();
  }
  return total;
}

std::vector<std::size_t> DnsCache::shard_sizes() const {
  std::vector<std::size_t> sizes;
  sizes.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    sizes.push_back(shard->lru.size());
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
    shard->lru.clear();
    shard->index.clear();
  }
}

std::vector<ExportedEntry> DnsCache::export_entries(const void* owner) const {
  std::vector<ExportedEntry> out;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    for (const Entry& entry : shard->lru)
      if (entry.owner == owner)
        out.push_back(ExportedEntry{entry.key, entry.answer, entry.expiry_s});
  }
  return out;
}

void DnsCache::merge_entries(const std::vector<ExportedEntry>& entries) {
  const void* owner = obs::current_tally();
  for (const auto& entry : entries) {
    Shard& shard = shard_for(entry.key);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(entry.key);
    if (it != shard.index.end()) {
      it->second->answer = entry.answer;
      it->second->expiry_s = entry.expiry_s;
      it->second->owner = owner;
    } else {
      shard.lru.push_back(
          Entry{entry.key, entry.answer, entry.expiry_s, owner});
      shard.index[entry.key] = std::prev(shard.lru.end());
    }
  }
}

}  // namespace encdns::cache
