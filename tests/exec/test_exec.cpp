// The deterministic parallel execution engine: pool correctness, sharding
// arithmetic, rng derivation, and the determinism contract itself.
#include "exec/arena.hpp"
#include "exec/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/cancel.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"

namespace encdns {
namespace {

TEST(ResolveThreadCount, ExplicitRequestWins) {
  EXPECT_EQ(exec::resolve_thread_count(3), 3u);
  EXPECT_EQ(exec::resolve_thread_count(1), 1u);
}

TEST(ResolveThreadCount, AutoIsAtLeastOne) {
  ::unsetenv("ENCDNS_THREADS");
  EXPECT_GE(exec::resolve_thread_count(0), 1u);
}

TEST(ParallelismAvailable, TracksTheAutoResolvedWorkerCount) {
  // The bench layer keys "speedup": null and its wall-clock guards off this
  // predicate, so pin it to resolve_thread_count(0) exactly.
  ::setenv("ENCDNS_THREADS", "1", 1);
  EXPECT_FALSE(exec::parallelism_available());
  ::setenv("ENCDNS_THREADS", "4", 1);
  EXPECT_TRUE(exec::parallelism_available());
  ::unsetenv("ENCDNS_THREADS");
  EXPECT_EQ(exec::parallelism_available(), exec::resolve_thread_count(0) > 1);
}

TEST(ResolveThreadCount, EnvOverrideApplies) {
  ::setenv("ENCDNS_THREADS", "5", 1);
  EXPECT_EQ(exec::resolve_thread_count(0), 5u);
  // Garbage and non-positive values refuse to start the run (DESIGN.md §13)
  // instead of silently falling back to hardware_concurrency.
  ::setenv("ENCDNS_THREADS", "0", 1);
  EXPECT_THROW((void)exec::resolve_thread_count(0), util::EnvError);
  ::setenv("ENCDNS_THREADS", "lots", 1);
  EXPECT_THROW((void)exec::resolve_thread_count(0), util::EnvError);
  ::unsetenv("ENCDNS_THREADS");
}

TEST(ShardRange, PartitionsWithoutGapsOrOverlap) {
  for (const std::size_t total : {0ul, 1ul, 7ul, 64ul, 1000ul, 1001ul}) {
    for (const std::size_t shards : {1ul, 2ul, 16ul, 64ul}) {
      std::size_t covered = 0;
      std::size_t expected_next = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const auto [first, last] = exec::shard_range(total, shards, s);
        EXPECT_EQ(first, expected_next);
        EXPECT_LE(first, last);
        covered += last - first;
        expected_next = last;
      }
      EXPECT_EQ(covered, total);
      EXPECT_EQ(expected_next, total);
    }
  }
}

TEST(ShardRange, SizesDifferByAtMostOne) {
  std::size_t min_size = SIZE_MAX, max_size = 0;
  for (std::size_t s = 0; s < 16; ++s) {
    const auto [first, last] = exec::shard_range(1003, 16, s);
    min_size = std::min(min_size, last - first);
    max_size = std::max(max_size, last - first);
  }
  EXPECT_LE(max_size - min_size, 1u);
}

TEST(ShardRng, DistinctShardsGetDistinctStreams) {
  util::Rng a = exec::shard_rng(42, 0);
  util::Rng b = exec::shard_rng(42, 1);
  EXPECT_NE(a.next(), b.next());
}

TEST(ShardRng, SameDerivationIsReproducible) {
  util::Rng a = exec::shard_rng(42, 7);
  util::Rng b = exec::shard_rng(42, 7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(WorkerPool, EveryShardRunsExactlyOnce) {
  exec::WorkerPool pool(4);
  constexpr std::size_t kShards = 1000;
  std::vector<std::atomic<int>> hits(kShards);
  pool.parallel_for_shards(kShards, [&](std::size_t s) { ++hits[s]; });
  for (std::size_t s = 0; s < kShards; ++s) EXPECT_EQ(hits[s].load(), 1);
}

TEST(WorkerPool, InlineModeMatchesPooledMode) {
  const auto run = [](unsigned threads) {
    exec::WorkerPool pool(threads);
    std::vector<std::uint64_t> out(257);
    pool.parallel_for_shards(out.size(), [&](std::size_t s) {
      out[s] = exec::shard_rng(99, s).next();
    });
    return out;
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(WorkerPool, ZeroShardsIsANoop) {
  exec::WorkerPool pool(4);
  bool ran = false;
  pool.parallel_for_shards(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(WorkerPool, SingleShardRunsInline) {
  exec::WorkerPool pool(4);
  int calls = 0;
  pool.parallel_for_shards(1, [&](std::size_t s) {
    EXPECT_EQ(s, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(WorkerPool, ReusableAcrossJobs) {
  exec::WorkerPool pool(4);
  for (int job = 0; job < 50; ++job) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for_shards(100, [&](std::size_t s) { sum += s; });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(WorkerPool, PropagatesTheFirstException) {
  exec::WorkerPool pool(4);
  EXPECT_THROW(pool.parallel_for_shards(
                   64,
                   [](std::size_t s) {
                     if (s == 13) throw std::runtime_error("shard 13");
                   }),
               std::runtime_error);
  // The pool must still be usable after a throwing job.
  std::atomic<int> ok{0};
  pool.parallel_for_shards(8, [&](std::size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 8);
}

TEST(ParallelMap, PreservesItemOrder) {
  exec::WorkerPool pool(4);
  std::vector<int> items(500);
  std::iota(items.begin(), items.end(), 0);
  const auto doubled = exec::parallel_map(
      pool, items, [](int item, std::size_t) { return item * 2; });
  ASSERT_EQ(doubled.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i)
    EXPECT_EQ(doubled[i], static_cast<int>(i) * 2);
}

TEST(ParallelMap, IndexMatchesItemPosition) {
  exec::WorkerPool pool(4);
  const std::vector<std::string> items = {"a", "b", "c", "d"};
  const auto tagged = exec::parallel_map(
      pool, items,
      [](const std::string& item, std::size_t i) { return item + std::to_string(i); });
  EXPECT_EQ(tagged, (std::vector<std::string>{"a0", "b1", "c2", "d3"}));
}

TEST(ParallelMap, MutableOverloadSeesMutations) {
  exec::WorkerPool pool(4);
  std::vector<int> items(100, 1);
  const auto out = exec::parallel_map(pool, items, [](int& item, std::size_t) {
    item += 1;
    return item;
  });
  for (const int v : out) EXPECT_EQ(v, 2);
  for (const int v : items) EXPECT_EQ(v, 2);
}

// The core contract, end to end: identical results for 1 vs N threads and
// for repeated N-thread runs, with per-shard rng streams.
TEST(Determinism, ShardedRngWorkloadIsThreadCountInvariant) {
  const auto run = [](unsigned threads) {
    exec::WorkerPool pool(threads);
    constexpr std::size_t kShards = 64;
    std::vector<std::vector<std::uint64_t>> partials(kShards);
    pool.parallel_for_shards(kShards, [&](std::size_t s) {
      util::Rng rng = exec::shard_rng(0xFEEDULL, s);
      for (int i = 0; i < 100; ++i) partials[s].push_back(rng.next());
    });
    std::vector<std::uint64_t> merged;
    for (const auto& p : partials) merged.insert(merged.end(), p.begin(), p.end());
    return merged;
  };
  const auto serial = run(1);
  const auto parallel_a = run(8);
  const auto parallel_b = run(8);
  EXPECT_EQ(serial, parallel_a);
  EXPECT_EQ(parallel_a, parallel_b);
}

// --- Scratch arenas (DESIGN.md §11) ------------------------------------------

TEST(ScratchArena, LeasesReuseBuffersInStackOrder) {
  exec::ScratchArena arena;
  std::vector<std::uint8_t>* first = nullptr;
  {
    exec::BufferLease lease(arena);
    first = lease.get();
    lease->assign(64, 0xAB);
  }
  EXPECT_EQ(arena.created(), 1u);
  EXPECT_EQ(arena.available(), 1u);
  {
    exec::BufferLease lease(arena);
    // Same buffer comes back, cleared but with its capacity retained.
    EXPECT_EQ(lease.get(), first);
    EXPECT_TRUE(lease->empty());
    EXPECT_GE(lease->capacity(), 64u);
  }
  EXPECT_EQ(arena.created(), 1u);
}

TEST(ScratchArena, NestedLeasesGetDistinctBuffers) {
  // Reentrancy: a resolver service handling an inline-delivered query takes
  // a lease while the querying client still holds one from the same thread's
  // arena. The two must never alias.
  exec::ScratchArena arena;
  exec::BufferLease outer(arena);
  outer->assign(16, 0x11);
  {
    exec::BufferLease inner(arena);
    EXPECT_NE(inner.get(), outer.get());
    inner->assign(16, 0x22);
    EXPECT_EQ(outer->front(), 0x11);
  }
  EXPECT_EQ(outer->front(), 0x11);
  EXPECT_EQ(arena.created(), 2u);
}

TEST(ScratchArena, ThreadLocalArenasAreDistinctPerWorker) {
  exec::WorkerPool pool(4);
  constexpr std::size_t kShards = 16;
  std::vector<exec::ScratchArena*> arenas(kShards, nullptr);
  pool.parallel_for_shards(kShards,
                           [&](std::size_t s) { arenas[s] = &exec::thread_arena(); });
  // Every shard saw *an* arena, and the distinct set is bounded by the
  // worker count (same worker => same arena, different workers => different).
  std::set<exec::ScratchArena*> distinct;
  for (auto* arena : arenas) {
    ASSERT_NE(arena, nullptr);
    distinct.insert(arena);
  }
  EXPECT_GE(distinct.size(), 1u);
  EXPECT_LE(distinct.size(), 4u + 1u);  // workers, +1 if the caller ran shards
}

TEST(WorkerPoolMetrics, PreCancelledJobExecutesNothingAndStealsNothing) {
  // exec.steals counts shards a worker actually RAN on behalf of another
  // thread. A job whose token tripped before submission only hands out
  // claim-and-skip bookkeeping — the drain loop must retire every shard
  // without ever counting one as stolen work.
  auto& registry = obs::MetricsRegistry::global();
  registry.reset();
  exec::WorkerPool pool(4);
  exec::CancelToken cancel;
  cancel.cancel();
  std::atomic<std::uint64_t> calls{0};
  const std::size_t executed = pool.parallel_for_shards(
      64, [&](std::size_t) { calls.fetch_add(1); }, &cancel);
  EXPECT_EQ(executed, 0u);
  EXPECT_EQ(calls.load(), 0u);
  EXPECT_EQ(registry.counter("exec.steals", true).value(), 0u);
}

TEST(WorkerPoolMetrics, QueuePeakSamplesDepthBeforeTheFirstClaim) {
  // Depth is sampled before each claim, so a fresh job of N shards peaks at
  // N — not N-1, which a post-claim sample would report.
  auto& registry = obs::MetricsRegistry::global();
  registry.reset();
  exec::WorkerPool pool(2);
  pool.parallel_for_shards(8, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  EXPECT_EQ(registry.gauge("exec.queue_peak", true).value(), 8);
}

TEST(ScratchArena, WorkerTasksRunAllocationFreeAfterWarmup) {
  // The fan-out contract: after one warmup pass fills each worker's arena,
  // repeated leases inside pool tasks create no further buffers. The warmup
  // is gated so that it reaches every pool thread whatever the scheduler
  // does: it has one shard per participant (the workers plus the submitting
  // thread), and each shard holds its thread until all of them have leased.
  // A thread cannot claim a second warmup shard while it waits in its first.
  exec::WorkerPool pool(4);
  const std::size_t participants = pool.thread_count();
  std::atomic<std::size_t> arrived{0};
  std::atomic<bool> gate_timed_out{false};
  pool.parallel_for_shards(participants, [&](std::size_t) {
    {
      exec::BufferLease lease;
      lease->resize(512);
    }
    arrived.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (arrived.load() < participants) {
      if (std::chrono::steady_clock::now() > deadline) {
        gate_timed_out = true;
        return;
      }
      std::this_thread::yield();
    }
  });
  ASSERT_FALSE(gate_timed_out.load()) << "warmup did not reach every thread";
  constexpr std::size_t kShards = 32;
  std::vector<std::size_t> created(kShards, 0);
  pool.parallel_for_shards(kShards, [&](std::size_t s) {
    const std::size_t before = exec::thread_arena().created();
    exec::BufferLease lease;
    lease->resize(512);
    created[s] = exec::thread_arena().created() - before;
  });
  for (const std::size_t c : created) EXPECT_EQ(c, 0u);
}

}  // namespace
}  // namespace encdns
