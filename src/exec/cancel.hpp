// Cooperative cancellation for deadline-budgeted phase execution
// (DESIGN.md §13). A CancelToken never interrupts running work: it is
// *checked* — by WorkerPool at shard pickup and by the phase loops at block
// boundaries — so cancellation can only land on a shard boundary and the
// executed shards always form a prefix of the canonical shard order.
//
// Three triggers, with different determinism guarantees:
//   * manual cancel()                — deterministic if the caller is;
//   * sim-time budget                — DETERMINISTIC: the spent amount is
//     advanced only at serial merge points (spend_sim), so every worker
//     observes the same value for the whole parallel job and the same
//     blocks are cut at every thread count;
//   * wall-clock deadline            — inherently NONDETERMINISTIC; a run
//     degraded by a wall deadline reports its reduced coverage but does not
//     promise byte-identical output (the resume contract applies only to
//     non-degraded runs).
// Tokens can chain to a parent (the study-wide --deadline token), so a
// per-phase budget and the global deadline are checked together.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>

#include "sim/duration.hpp"

namespace encdns::exec {

class CancelToken {
 public:
  static constexpr double kMaxBudgetSeconds = 1e9;  // ~31.7 years

  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Trip the token now. Idempotent; `reason` must be a string literal.
  void cancel(const char* reason = "cancelled") noexcept {
    trip(reason);
  }

  /// Wall-clock budget from now. Coverage-only degradation (see header note).
  /// Both budgets clamp at kMaxBudgetSeconds: converting a larger double to
  /// the integer ticks they are kept in would overflow.
  void set_wall_budget(double seconds) noexcept {
    wall_deadline_ = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(
                             std::min(seconds, kMaxBudgetSeconds)));
    has_wall_deadline_ = true;
  }

  /// Deterministic simulated-time budget, measured in sim::Millis spent.
  void set_sim_budget(sim::Millis budget) noexcept {
    sim_budget_us_ = static_cast<std::uint64_t>(
        std::min(budget.value * 1000.0, kMaxBudgetSeconds * 1e6));
    has_sim_budget_ = true;
  }

  /// Account simulated time. MUST be called from serial sections only (block
  /// merges), never from workers — that is what keeps the sim trigger
  /// deterministic at any thread count.
  void spend_sim(sim::Millis elapsed) noexcept {
    if (elapsed.value <= 0.0) return;
    sim_spent_us_.fetch_add(static_cast<std::uint64_t>(elapsed.value * 1000.0),
                            std::memory_order_relaxed);
  }

  /// Chain to a token checked in addition to this one (study-wide deadline).
  void set_parent(const CancelToken* parent) noexcept { parent_ = parent; }

  [[nodiscard]] bool cancelled() const noexcept {
    if (flag_.load(std::memory_order_relaxed)) return true;
    if (parent_ != nullptr && parent_->cancelled()) {
      trip("parent");
      return true;
    }
    if (has_sim_budget_ &&
        sim_spent_us_.load(std::memory_order_relaxed) >= sim_budget_us_) {
      trip("sim-budget");
      return true;
    }
    if (has_wall_deadline_ &&
        std::chrono::steady_clock::now() >= wall_deadline_) {
      trip("wall-deadline");
      return true;
    }
    return false;
  }

  /// Why the token tripped ("" while still live).
  [[nodiscard]] const char* reason() const noexcept {
    const char* r = reason_.load(std::memory_order_relaxed);
    return r == nullptr ? "" : r;
  }

 private:
  void trip(const char* reason) const noexcept {
    const char* expected = nullptr;
    reason_.compare_exchange_strong(expected, reason,
                                    std::memory_order_relaxed);
    flag_.store(true, std::memory_order_relaxed);
  }

  mutable std::atomic<bool> flag_{false};
  mutable std::atomic<const char*> reason_{nullptr};
  const CancelToken* parent_ = nullptr;
  bool has_wall_deadline_ = false;
  std::chrono::steady_clock::time_point wall_deadline_{};
  bool has_sim_budget_ = false;
  std::uint64_t sim_budget_us_ = 0;
  std::atomic<std::uint64_t> sim_spent_us_{0};
};

}  // namespace encdns::exec
