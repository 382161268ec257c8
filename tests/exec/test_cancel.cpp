// Cooperative cancellation (DESIGN.md §13): a CancelToken is checked at
// shard pickup only, so the executed shards always form a prefix of the
// canonical shard order and a sim-budget abort is bit-identical at any
// thread count.
#include "exec/cancel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "exec/executor.hpp"
#include "sim/duration.hpp"

namespace encdns::exec {
namespace {

TEST(Cancel, PreCancelledTokenRunsNoShards) {
  CancelToken token;
  token.cancel("test");
  WorkerPool pool(4);
  std::atomic<int> ran{0};
  const std::size_t executed = pool.parallel_for_shards(
      32, [&](std::size_t) { ran.fetch_add(1); }, &token);
  EXPECT_EQ(executed, 0u);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_STREQ(token.reason(), "test");
}

TEST(Cancel, NullTokenRunsEveryShard) {
  WorkerPool pool(4);
  std::atomic<int> ran{0};
  const std::size_t executed = pool.parallel_for_shards(
      32, [&](std::size_t) { ran.fetch_add(1); }, nullptr);
  EXPECT_EQ(executed, 32u);
  EXPECT_EQ(ran.load(), 32);
}

TEST(Cancel, InlineCancellationCutsExactlyAfterTheTrippingShard) {
  CancelToken token;
  WorkerPool pool(1);  // inline mode: shards run in index order
  std::vector<int> order;
  const std::size_t executed = pool.parallel_for_shards(
      64,
      [&](std::size_t shard) {
        order.push_back(static_cast<int>(shard));
        if (shard == 5) token.cancel();
      },
      &token);
  EXPECT_EQ(executed, 6u);  // shards 0..5 ran; 6 was never picked up
  ASSERT_EQ(order.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Cancel, ExecutedShardsFormPrefixUnderParallelCancellation) {
  CancelToken token;
  WorkerPool pool(4);
  std::vector<std::atomic<bool>> ran(256);
  const std::size_t executed = pool.parallel_for_shards(
      256,
      [&](std::size_t shard) {
        ran[shard].store(true);
        if (shard == 17) token.cancel();
      },
      &token);
  EXPECT_GE(executed, 18u);
  EXPECT_TRUE(token.cancelled());
  // The claim order is the index order, so whatever k came out, the executed
  // set must be exactly [0, k) — no holes, no stragglers beyond the prefix.
  for (std::size_t shard = 0; shard < 256; ++shard)
    EXPECT_EQ(ran[shard].load(), shard < executed) << "shard " << shard;
}

/// The block-merge pattern every phase uses: run a block, account its sim
/// time serially, check the token before the next block. With a sim budget
/// the cut block index is a pure function of the workload.
std::size_t run_blocked_workload(unsigned threads) {
  CancelToken token;
  token.set_sim_budget(sim::Millis{250.0});
  WorkerPool pool(threads);
  std::size_t total = 0;
  for (int block = 0; block < 10; ++block) {
    const std::size_t executed = pool.parallel_for_shards(
        10, [&](std::size_t) {}, &token);
    total += executed;
    if (executed < 10) break;
    token.spend_sim(sim::Millis{100.0});  // serial merge point
    if (token.cancelled()) break;
  }
  return total;
}

TEST(Cancel, SimBudgetCutIsThreadCountInvariant) {
  // 100 ms per block against a 250 ms budget: spent reaches 300 >= 250 after
  // the third block, at every thread count.
  const std::size_t at_one = run_blocked_workload(1);
  EXPECT_EQ(at_one, 30u);
  EXPECT_EQ(run_blocked_workload(2), at_one);
  EXPECT_EQ(run_blocked_workload(8), at_one);
}

TEST(Cancel, SimBudgetReportsItsReason) {
  CancelToken token;
  token.set_sim_budget(sim::Millis{10.0});
  token.spend_sim(sim::Millis{10.0});
  EXPECT_TRUE(token.cancelled());
  EXPECT_STREQ(token.reason(), "sim-budget");
}

TEST(Cancel, ExpiredWallDeadlineTrips) {
  CancelToken token;
  token.set_wall_budget(0.0);
  EXPECT_TRUE(token.cancelled());
  EXPECT_STREQ(token.reason(), "wall-deadline");
}

TEST(Cancel, HugeBudgetsClampInsteadOfOverflowing) {
  // 1e300 s does not fit the clock's integer ticks; the budget clamps to
  // kMaxBudgetSeconds and simply never trips within a run.
  CancelToken wall, sim_token;
  wall.set_wall_budget(1e300);
  EXPECT_FALSE(wall.cancelled());
  sim_token.set_sim_budget(sim::Millis{1e300});
  sim_token.spend_sim(sim::Millis{1e9});
  EXPECT_FALSE(sim_token.cancelled());
}

TEST(Cancel, ParentCancellationPropagates) {
  CancelToken parent, child;
  child.set_parent(&parent);
  EXPECT_FALSE(child.cancelled());
  parent.cancel("deadline");
  EXPECT_TRUE(child.cancelled());
  EXPECT_STREQ(child.reason(), "parent");
}

TEST(Cancel, ZeroSpendNeverTripsAZeroBudgetlessToken) {
  CancelToken token;
  token.spend_sim(sim::Millis{1e9});  // no budget set: spending is inert
  EXPECT_FALSE(token.cancelled());
  EXPECT_STREQ(token.reason(), "");
}

}  // namespace
}  // namespace encdns::exec
