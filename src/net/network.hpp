// The simulated internet: address bindings with anycast PoPs, background
// hosts, client contexts, and the transport primitives (UDP exchange, TCP
// connect, SYN probe) every higher layer builds on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "fault/fault.hpp"
#include "net/connection.hpp"
#include "net/geo.hpp"
#include "net/middlebox.hpp"
#include "net/service.hpp"
#include "sim/duration.hpp"
#include "util/date.hpp"
#include "util/ipv4.hpp"
#include "util/rng.hpp"

namespace encdns::net {

/// One point of presence serving an anycast (or unicast) address.
struct Pop {
  Location location;
  std::shared_ptr<Service> service;
  sim::Millis extra_processing{0.0};
};

/// An address binding: the PoPs answering for `addr` during [from, to).
struct Binding {
  util::Ipv4 addr;
  std::vector<Pop> pops;
  util::Date active_from{2000, 1, 1};
  util::Date active_to{2100, 1, 1};
};

/// A vantage point: where the client is and what sits on its path.
struct ClientContext {
  Location location;
  LinkProfile link;
  std::vector<const Middlebox*> path;  // non-owning, ordered client -> internet
};

class Network {
 public:
  /// Register a binding. Multiple bindings for one address may coexist with
  /// disjoint activity windows (e.g. an address reassigned between scans).
  void bind(Binding binding);

  /// Predicate describing hosts that exist only statistically: "is (addr,
  /// port) accepting TCP at `date`?" Used for the millions of port-853-open
  /// hosts that are not DoT resolvers (§3.2 Finding 1.1).
  using BackgroundProbe =
      std::function<bool(util::Ipv4, std::uint16_t, const util::Date&)>;
  void set_background(BackgroundProbe probe) { background_ = std::move(probe); }

  /// Install the transient-fault injector consulted by every transport
  /// primitive (nullptr disables injection entirely). Non-owning; the World
  /// owns the injector and keeps it alive for the network's lifetime.
  void set_fault_injector(const fault::FaultInjector* injector) noexcept {
    injector_ = injector;
  }
  [[nodiscard]] const fault::FaultInjector* fault_injector() const noexcept {
    return injector_;
  }

  /// Nearest active PoP for `addr` as seen from `from` at `date`; nullptr if
  /// the address has no active binding.
  [[nodiscard]] const Pop* route(util::Ipv4 addr, const Location& from,
                                 const util::Date& date) const;

  [[nodiscard]] std::size_t binding_count() const noexcept;

  /// Every address with at least one binding (any activity window), in
  /// unspecified order. The stateless scan engine snapshots this set once
  /// per sweep to split the space into "bound: full routing semantics" and
  /// "unbound: background-or-closed fast path" (DESIGN.md §14).
  [[nodiscard]] std::vector<util::Ipv4> bound_addresses() const;

  // --- transport primitives -------------------------------------------------

  enum class ProbeStatus { kOpen, kClosed, kFiltered };
  struct ProbeResult {
    ProbeStatus status = ProbeStatus::kClosed;
    sim::Millis latency{0.0};
  };
  /// TCP SYN probe (ZMap semantics): kOpen on SYN-ACK, kClosed on RST or
  /// no-host, kFiltered when the SYN is silently dropped in-path.
  /// A set `unbound_background` is the caller's promise that dst is not
  /// among bound_addresses() (a sweep snapshots that set once), together
  /// with the background predicate's answer for (dst, port, date), which a
  /// sweep evaluates with its per-date constants hoisted. The probe then
  /// skips the bindings lookup and the predicate call; the verdict and every
  /// rng draw are unchanged.
  [[nodiscard]] ProbeResult probe_tcp(
      const ClientContext& client, util::Rng& rng, util::Ipv4 dst,
      std::uint16_t port, const util::Date& date,
      sim::Millis timeout = sim::Millis{3000},
      std::optional<bool> unbound_background = std::nullopt) const;

  struct UdpResult {
    enum class Status { kOk, kTimeout };
    Status status = Status::kTimeout;
    std::vector<std::uint8_t> payload;
    sim::Millis latency{0.0};
    bool spoofed = false;  // answer forged in-path, never reached dst
  };
  /// One UDP request/response exchange. The deadline is the caller's: the
  /// client's own query timeout, not a transport-layer constant.
  [[nodiscard]] UdpResult udp_exchange(const ClientContext& client, util::Rng& rng,
                                       util::Ipv4 dst, std::uint16_t port,
                                       std::span<const std::uint8_t> payload,
                                       const util::Date& date,
                                       sim::Millis timeout) const;

  /// Slot-reusing twin of `udp_exchange` (DESIGN.md §12): the response bytes
  /// land in `out.payload` (capacity preserved), so warmed results exchange
  /// without fresh payload allocations. `out.payload` is meaningful only when
  /// the status is kOk. `payload` must not alias `out.payload`'s storage.
  void udp_exchange_into(const ClientContext& client, util::Rng& rng,
                         util::Ipv4 dst, std::uint16_t port,
                         std::span<const std::uint8_t> payload,
                         const util::Date& date, sim::Millis timeout,
                         UdpResult& out) const;

  struct ConnectResult {
    enum class Status { kConnected, kTimeout, kReset, kRefused };
    Status status = Status::kRefused;
    std::optional<TcpConnection> connection;  // set iff kConnected
    sim::Millis latency{0.0};
  };
  /// Establish a TCP connection (one RTT on success). The deadline is the
  /// caller's own — there is deliberately no default: a hidden 5 s constant
  /// here used to silently undercut the clients' 30 s query timeouts.
  [[nodiscard]] ConnectResult tcp_connect(const ClientContext& client, util::Rng& rng,
                                          util::Ipv4 dst, std::uint16_t port,
                                          const util::Date& date,
                                          sim::Millis timeout) const;

 private:
  std::unordered_map<util::Ipv4, std::vector<Binding>> bindings_;
  BackgroundProbe background_;
  const fault::FaultInjector* injector_ = nullptr;

  /// Sample this client's RTT to a point, with per-call jitter.
  [[nodiscard]] static sim::Millis sample_rtt(const ClientContext& client,
                                              const GeoPoint& remote,
                                              sim::Millis extra, util::Rng& rng);

  friend class TcpConnection;
};

/// The anonymous endpoint used for background hosts: accepts the handshake,
/// never speaks TLS, never answers application payloads.
[[nodiscard]] Service& background_host_service();

}  // namespace encdns::net
