// Clear-text DNS stub client: Do53 over UDP and over TCP (with optional
// connection reuse). DNS/TCP is the study's clear-text baseline because the
// proxy platforms forward TCP only (§4.1).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "client/outcome.hpp"
#include "dns/name.hpp"
#include "dns/query.hpp"
#include "net/network.hpp"
#include "util/rng.hpp"

namespace encdns::client {

/// Pool key for reusable stream connections.
[[nodiscard]] inline std::uint64_t pool_key(util::Ipv4 addr, std::uint16_t port) noexcept {
  return (static_cast<std::uint64_t>(addr.value()) << 16) | port;
}

struct Do53Options {
  sim::Millis timeout{5000.0};
  bool reuse_connection = true;  // TCP only
  /// RFC 1035 §4.2.1: when a UDP response comes back truncated (TC set),
  /// retry the lookup over TCP.
  bool retry_tcp_on_truncation = true;
  dns::QueryOptions query;
};

class Do53Client {
 public:
  Do53Client(const net::Network& network, net::ClientContext context,
             std::uint64_t seed)
      : network_(&network), context_(std::move(context)), rng_(seed) {}

  using Options = Do53Options;

  /// One Do53/UDP lookup.
  [[nodiscard]] QueryOutcome query_udp(util::Ipv4 server, const dns::Name& qname,
                                       dns::RrType type, const util::Date& date,
                                       const Options& options = {});

  /// One Do53/TCP lookup; reuses a pooled connection when allowed.
  [[nodiscard]] QueryOutcome query_tcp(util::Ipv4 server, const dns::Name& qname,
                                       dns::RrType type, const util::Date& date,
                                       const Options& options = {});

  /// Slot-reusing twins of the lookups above (DESIGN.md §12): the outcome is
  /// reset and refilled in place (`out.response` stays engaged with warmed
  /// storage; see QueryOutcome), so a reused client + outcome pair performs
  /// steady-state lookups with zero fresh client-side allocations: a lookup
  /// the resolver answers from its cache allocates nothing at all, and one
  /// that misses allocates only inside the simulated resolver (the new cache
  /// entry and the authoritative record). tests/alloc pins both. The plain
  /// variants wrap these, so behaviour stays identical by construction.
  void query_udp_into(util::Ipv4 server, const dns::Name& qname, dns::RrType type,
                      const util::Date& date, const Options& options,
                      QueryOutcome& out);
  void query_tcp_into(util::Ipv4 server, const dns::Name& qname, dns::RrType type,
                      const util::Date& date, const Options& options,
                      QueryOutcome& out);

  /// Re-seed this client for a new logical session (DESIGN.md §12): same rng
  /// stream and empty pools as a freshly constructed
  /// `Do53Client(network, context, seed)`, but all warmed scratch storage
  /// (query message, reply buffers) is kept. Lets one thread-resident client
  /// serve many measurement clients without per-client construction.
  void rebind(const net::Network& network, const net::ClientContext& context,
              std::uint64_t seed) {
    network_ = &network;
    context_ = context;
    rng_ = util::Rng(seed);
    pool_.clear();
  }

  /// Drop all pooled connections.
  void reset_pool() { pool_.clear(); }

  [[nodiscard]] const net::ClientContext& context() const noexcept { return context_; }
  [[nodiscard]] util::Rng& rng() noexcept { return rng_; }

 private:
  const net::Network* network_;
  net::ClientContext context_;
  util::Rng rng_;
  std::unordered_map<std::uint64_t, net::TcpConnection> pool_;
  /// Reused across queries so steady-state builds allocate nothing
  /// (DESIGN.md §11); wire bytes are staged in exec::thread_arena() leases.
  dns::Message query_scratch_;
  net::Network::UdpResult udp_scratch_;
  net::TcpConnection::ExchangeResult exchange_scratch_;
};

}  // namespace encdns::client
