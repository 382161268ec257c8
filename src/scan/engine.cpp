#include "scan/engine.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "dns/types.hpp"
#include "exec/executor.hpp"
#include "exec/window.hpp"
#include "scan/cookie.hpp"
#include "util/env.hpp"

namespace encdns::scan {

namespace {

// Mirrors the scanner's fixed Phase-1 shard count: part of the deterministic
// contract, never a function of the thread count.
constexpr std::size_t kSweepShards = 64;

// Cancellation poll stride inside a shard's transmit walk. Wall/manual
// cancellation is non-deterministic by contract, so polling mid-shard is
// legal; sim budgets only move at serial merge points, so a sim-triggered
// cut still lands on shard boundaries.
constexpr std::uint64_t kCancelStride = 4096;

// Cookie-keyed sub-streams for the receive-side adversarial cases (all
// gated on an enabled injector, so canonical fault-free runs never draw).
constexpr std::uint64_t kForgeKey = 0xF0A6EULL;
constexpr std::uint64_t kDupKey = 0xD0B1EULL;
constexpr std::uint64_t kStaleKey = 0x57A1EULL;

// Of the SYN-dropped probes, the fraction whose SYN-ACK was merely late
// rather than lost: the response surfaces after the retransmit already
// classified the address, exercising the stale-rejection path.
constexpr double kLateFraction = 0.25;

constexpr sim::Millis kProbeTimeout{3000.0};

/// One queued response awaiting classification.
struct Pending {
  double arrival = 0.0;      // shard-local simulated ms
  std::uint64_t seq = 0;     // attempt-0 emission index (canonical position)
  util::Ipv4 addr;
  std::uint32_t attempt = 0;
  std::uint64_t echoed = 0;  // cookie as echoed (forgeries corrupt this)
  net::Network::ProbeStatus status = net::Network::ProbeStatus::kClosed;
  sim::Millis latency{0.0};
  bool bound = false;      // addr has a binding (retransmits route it too)
  bool holds_credit = false;
  bool duplicate = false;  // second delivery of an already-queued response
  bool stale = false;      // late arrival for a retransmitted attempt
};

struct ArrivesLater {
  bool operator()(const Pending& a, const Pending& b) const noexcept {
    if (a.arrival != b.arrival) return a.arrival > b.arrival;
    return a.seq > b.seq;  // deterministic tiebreak
  }
};

struct ShardPartial {
  std::vector<std::pair<std::uint64_t, util::Ipv4>> opens;  // (seq, addr)
  EngineTally tally;
};

/// The per-shard transmit/receive pair. Everything here is shard-local:
/// the window, the receive ring, the pacing clock, and the partial tally.
class ShardRun {
 public:
  ShardRun(const world::World& world, const EngineConfig& config,
           const ScanSpace& space, const std::vector<world::Vantage>& origins,
           const util::Date& date, const std::vector<bool>& bound,
           bool fast_path, std::size_t window, double pace_qps,
           ShardPartial& partial)
      : world_(&world),
        config_(&config),
        space_(&space),
        origins_(&origins),
        date_(&date),
        bound_(&bound),
        background_(world.background_sweep_853(date)),
        fast_path_(fast_path),
        pace_gap_(pace_qps > 0.0 ? 1000.0 / pace_qps : 0.0),
        window_(window),
        partial_(&partial) {
    const auto* injector = world.network().fault_injector();
    injector_on_ = injector != nullptr && injector->enabled();
  }

  void run(CyclicPermutation::Walker walker) {
    bool cancelled = false;
    while (const auto index = walker.next()) {
      const util::Ipv4 addr = space_->at(*index);
      ++partial_->tally.probed;
      transmit(partial_->tally.probed - 1, addr, /*attempt=*/0,
               (*bound_)[static_cast<std::size_t>(*index)]);
      if (tripped()) {
        cancelled = true;
        break;
      }
    }
    drain_all(/*classify=*/!cancelled);
    // Materialized-response time, accumulated in integer nanoseconds so the
    // shard total is independent of classification order (double addition
    // is not associative; drain order legally shifts with window/pace).
    partial_->tally.sim_elapsed +=
        sim::Millis{static_cast<double>(sim_nanos_) * 1e-6};
    partial_->tally.credit_leaks += window_.in_flight();
    partial_->tally.double_releases += window_.double_releases();
    partial_->tally.window_high_water =
        std::max(partial_->tally.window_high_water, window_.high_water());
    std::sort(partial_->opens.begin(), partial_->opens.end());
  }

 private:
  [[nodiscard]] bool tripped() {
    exec::CancelToken* token = config_->cancel;
    if (token == nullptr) return false;
    if (config_->cancel_after_tx > 0 &&
        partial_->tally.transmitted >= config_->cancel_after_tx) {
      token->cancel("scan-engine-test-hook");
      return true;
    }
    if (partial_->tally.transmitted % kCancelStride == 0 && token->cancelled())
      return true;
    return false;
  }

  /// Emit one probe and apply the engine's one classification rule: a
  /// response whose verdict cannot depend on arrival order is classified the
  /// moment its probe is sent. That is every closed verdict whose echoed
  /// cookie validates (sim time is an integer sum, and a closed address adds
  /// nothing else). Only opens and filtered or forged responses (which may
  /// retransmit) ride the ring holding a credit; the duplicates and stale
  /// ghosts the receive side rejects ride it without one. On a clean,
  /// fault-free path an unbound address is the rule's cheapest case: it is
  /// background-open or closed, and its closed verdict materializes no
  /// response at all — no cookie, no rng draw, no latency.
  void transmit(std::uint64_t seq, util::Ipv4 addr, std::uint32_t attempt,
                bool bound) {
    ++partial_->tally.transmitted;
    tx_clock_ += pace_gap_;
    // An unbound address is background-open or closed, and the sweep's
    // hoisted predicate says which.
    const std::optional<bool> background =
        bound ? std::nullopt
              : std::optional<bool>(config_->port == dns::kDotPort &&
                                    background_.open(addr));
    if (fast_path_ && !bound && !*background) return;
    const std::uint64_t cookie =
        make_cookie(config_->seed, addr, config_->port, attempt);
    util::Rng rng = cookie_rng(cookie);
    Pending item;
    item.seq = seq;
    item.addr = addr;
    item.attempt = attempt;
    item.bound = bound;
    item.echoed = cookie;
    // Full transport semantics via probe_tcp, with the probe's own
    // cookie-keyed stream.
    const auto probe = world_->network().probe_tcp(
        origin_for(addr).context, rng, addr, config_->port, *date_,
        kProbeTimeout, background);
    item.status = probe.status;
    item.latency = probe.latency;
    if (injector_on_) corrupt_in_flight(item);
    if (item.status == net::Network::ProbeStatus::kClosed &&
        item.echoed == cookie) {
      verdict(item, /*authentic=*/true);
      return;
    }
    enqueue_with_credit(std::move(item));
  }

  /// The receive-side adversaries, each drawn from its own cookie-keyed
  /// stream: a garbled echo (the response will fail validation) and a
  /// second delivery of the same response (rejected as a duplicate).
  void corrupt_in_flight(Pending& item) {
    const auto& profile = world_->network().fault_injector()->profile();
    util::Rng forge = cookie_rng(item.echoed ^ kForgeKey);
    util::Rng dup = cookie_rng(item.echoed ^ kDupKey);
    if (forge.chance(profile.exchange_garble))
      item.echoed ^= 1ULL << forge.below(64);
    if (dup.chance(profile.udp_drop)) {
      Pending copy = item;
      copy.arrival = tx_clock_ + item.latency.value + dup.uniform(1.0, 50.0);
      copy.holds_credit = false;
      copy.duplicate = true;
      ring_.push(std::move(copy));
    }
  }

  void enqueue_with_credit(Pending item) {
    while (!window_.try_acquire()) classify(pop());
    item.holds_credit = true;
    item.arrival = tx_clock_ + item.latency.value;
    ring_.push(std::move(item));
  }

  [[nodiscard]] Pending pop() {
    Pending item = ring_.top();
    ring_.pop();
    return item;
  }

  void drain_all(bool classify_items) {
    while (!ring_.empty()) {
      Pending item = pop();
      if (classify_items) {
        classify(item);
      } else {
        // Cancelled with the response still queued: the credit is released
        // exactly once and the verdict is dropped (coverage degrades, the
        // window balances) — the tests/exec/test_window regression.
        if (item.holds_credit) window_.release();
      }
    }
  }

  /// The receive side: reject duplicates and stale arrivals, validate the
  /// echoed cookie, then apply the verdict (possibly retransmitting).
  void classify(const Pending& item) {
    if (item.holds_credit) window_.release();
    EngineTally& tally = partial_->tally;
    if (item.duplicate) {
      ++tally.rejected_duplicate;
      return;
    }
    if (item.stale) {
      ++tally.rejected_stale;
      return;
    }
    verdict(item, validate_cookie(item.echoed, config_->seed, item.addr,
                                  config_->port, item.attempt));
  }

  /// Apply one materialized response: its latency joins the shard's sim
  /// time, then the verdict lands in the open set or the retry accounting.
  void verdict(const Pending& item, bool authentic) {
    EngineTally& tally = partial_->tally;
    sim_nanos_ +=
        static_cast<std::uint64_t>(std::llround(item.latency.value * 1e6));
    if (!authentic) {
      // Forged or garbled echo: fail closed. The response proves nothing,
      // so the attempt is treated exactly like a filtered verdict.
      ++tally.rejected_forgery;
      filtered_verdict(item);
      return;
    }
    switch (item.status) {
      case net::Network::ProbeStatus::kFiltered:
        filtered_verdict(item);
        return;
      case net::Network::ProbeStatus::kOpen:
        ++tally.open;
        partial_->opens.emplace_back(item.seq, item.addr);
        break;
      case net::Network::ProbeStatus::kClosed:
        break;
    }
    if (item.attempt > 0) ++tally.faults.recovered;
  }

  /// Mirror of the legacy retry accounting: each retransmission counts one
  /// injected fault; an address still unreachable on its final attempt
  /// surfaces, a later success recovers.
  void filtered_verdict(const Pending& item) {
    EngineTally& tally = partial_->tally;
    if (static_cast<int>(item.attempt) + 1 <
        std::max(config_->max_attempts, 1)) {
      ++tally.faults.injected;
      ++tally.retransmits;
      maybe_emit_stale(item);
      transmit(item.seq, item.addr, item.attempt + 1, item.bound);
      return;
    }
    ++tally.faults.surfaced;
  }

  /// A dropped probe whose response was merely late: it arrives after the
  /// retransmit classified the address and must be rejected as stale. Late
  /// arrivals hold no credit — their probe's credit was already released
  /// when the timeout verdict was classified.
  void maybe_emit_stale(const Pending& item) {
    if (!injector_on_) return;
    const std::uint64_t cookie = make_cookie(config_->seed, item.addr,
                                             config_->port, item.attempt);
    util::Rng late = cookie_rng(cookie ^ kStaleKey);
    if (!late.chance(kLateFraction)) return;
    Pending ghost;
    ghost.seq = item.seq;
    ghost.addr = item.addr;
    ghost.attempt = item.attempt;
    ghost.echoed = cookie;
    ghost.status = net::Network::ProbeStatus::kOpen;
    ghost.latency = sim::Millis{0.0};
    ghost.arrival = tx_clock_ + kProbeTimeout.value + late.uniform(0.0, 500.0);
    ghost.holds_credit = false;
    ghost.stale = true;
    ring_.push(std::move(ghost));
  }

  [[nodiscard]] const world::Vantage& origin_for(util::Ipv4 addr) const {
    return (*origins_)[addr.value() % origins_->size()];
  }

  const world::World* world_;
  const EngineConfig* config_;
  const ScanSpace* space_;
  const std::vector<world::Vantage>* origins_;
  const util::Date* date_;
  const std::vector<bool>* bound_;
  world::World::Background853Sweep background_;
  bool fast_path_;
  bool injector_on_ = false;
  double pace_gap_;
  double tx_clock_ = 0.0;
  std::uint64_t sim_nanos_ = 0;
  exec::CreditWindow window_;
  std::priority_queue<Pending, std::vector<Pending>, ArrivesLater> ring_;
  ShardPartial* partial_;
};

[[nodiscard]] std::size_t resolve_window(std::size_t requested) {
  if (requested > 0) return requested;
  if (const auto env = util::env_positive_int("ENCDNS_SCAN_WINDOW"))
    return static_cast<std::size_t>(*env);
  return 256;
}

[[nodiscard]] double resolve_pace(double requested) {
  if (requested > 0.0) return requested;
  if (const auto env = util::env_double("ENCDNS_SCAN_RATE")) {
    if (*env <= 0.0)
      throw util::EnvError(
          "ENCDNS_SCAN_RATE: expected a positive probes-per-second rate");
    return *env;
  }
  return 0.0;
}

}  // namespace

EngineTally& EngineTally::operator+=(const EngineTally& other) noexcept {
  transmitted += other.transmitted;
  probed += other.probed;
  open += other.open;
  retransmits += other.retransmits;
  rejected_forgery += other.rejected_forgery;
  rejected_duplicate += other.rejected_duplicate;
  rejected_stale += other.rejected_stale;
  credit_leaks += other.credit_leaks;
  double_releases += other.double_releases;
  window_high_water = std::max(window_high_water, other.window_high_water);
  faults += other.faults;
  sim_elapsed += other.sim_elapsed;
  return *this;
}

ScanEngine::ScanEngine(const world::World& world, EngineConfig config)
    : world_(&world),
      config_(std::move(config)),
      window_(resolve_window(config_.window)),
      pace_qps_(resolve_pace(config_.pace_qps)) {}

SweepResult ScanEngine::sweep(const ScanSpace& space,
                              const CyclicPermutation& permutation,
                              const std::vector<world::Vantage>& origins,
                              const util::Date& date) const {
  // The fast path is legal only when nothing can perturb an unbound
  // address's verdict: clean origins (no middlebox path) and no injector.
  const auto* injector = world_->network().fault_injector();
  bool fast_path = injector == nullptr || !injector->enabled();
  for (const auto& origin : origins)
    if (!origin.context.path.empty()) fast_path = false;

  // Addresses with bindings take the full probe_tcp route; everything else
  // is background-or-closed. One bitmap per sweep, indexed by space index.
  std::vector<bool> bound(static_cast<std::size_t>(space.size()), false);
  for (const util::Ipv4 addr : world_->network().bound_addresses())
    if (const auto index = space.index_of(addr))
      bound[static_cast<std::size_t>(*index)] = true;

  std::optional<exec::WorkerPool> local_pool;
  exec::WorkerPool& pool = config_.pool != nullptr
                               ? *config_.pool
                               : local_pool.emplace(config_.thread_count);
  std::vector<ShardPartial> partials(kSweepShards);
  pool.parallel_for_shards(
      kSweepShards,
      [&](std::size_t shard) {
        const auto [first, last] =
            exec::shard_range(permutation.steps(), kSweepShards, shard);
        ShardRun run(*world_, config_, space, origins, date, bound, fast_path,
                     window_, pace_qps_, partials[shard]);
        run.run(permutation.walk(first, last));
      },
      config_.cancel);

  SweepResult result;
  for (const auto& partial : partials) {  // canonical shard-order merge
    for (const auto& [seq, addr] : partial.opens)
      result.open_hosts.push_back(addr);
    result.tally += partial.tally;
  }
  return result;
}

}  // namespace encdns::scan
