// DNS-over-HTTPS stub client (RFC 8484). Strict-Privacy-only by design:
// certificate validation failure aborts the lookup (§2.2). Supports GET with
// the base64url `dns` parameter and POST with an application/dns-message
// body, plus clear-text bootstrap of the template hostname.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "client/do53.hpp"
#include "client/outcome.hpp"
#include "http/message.hpp"
#include "http/url.hpp"
#include "net/network.hpp"
#include "tls/handshake.hpp"
#include "tls/trust_store.hpp"

namespace encdns::client {

struct DohOptions {
  http::Method method = http::Method::kGet;
  tls::TlsVersion tls_version = tls::TlsVersion::kTls13;
  const tls::TrustStore* trust_store = &tls::TrustStore::mozilla();
  bool reuse_connection = true;
  std::size_t padding_block = 128;
  sim::Millis timeout{30000.0};
  /// Resolver used to bootstrap the template hostname when no literal
  /// server address is supplied.
  std::optional<util::Ipv4> bootstrap_resolver;
  /// Connect here directly, skipping bootstrap (hostname still used for
  /// SNI and certificate validation).
  std::optional<util::Ipv4> server_address;
};

class DohClient {
 public:
  DohClient(const net::Network& network, net::ClientContext context,
            std::uint64_t seed)
      : network_(&network),
        context_(std::move(context)),
        rng_(seed),
        bootstrap_client_(network, context_, rng_.next()) {}

  using Options = DohOptions;

  [[nodiscard]] QueryOutcome query(const http::UriTemplate& uri_template,
                                   const dns::Name& qname, dns::RrType type,
                                   const util::Date& date, const Options& options = {});

  /// Slot-reusing twin of `query` (DESIGN.md §12): resets and refills `out`
  /// in place, keeping its warmed response/chain storage. `query` wraps this.
  /// With a warm connection a lookup the resolver answers from its cache
  /// allocates nothing, as in the Do53 and DoT twins (pinned in tests/alloc).
  void query_into(const http::UriTemplate& uri_template, const dns::Name& qname,
                  dns::RrType type, const util::Date& date,
                  const Options& options, QueryOutcome& out);

  /// Re-seed for a new logical session (DESIGN.md §12): draws the bootstrap
  /// client's seed from the fresh stream exactly like the constructor, so a
  /// rebound client is rng-equivalent to a newly constructed one.
  void rebind(const net::Network& network, const net::ClientContext& context,
              std::uint64_t seed) {
    network_ = &network;
    context_ = context;
    rng_ = util::Rng(seed);
    bootstrap_client_.rebind(network, context_, rng_.next());
    sessions_.clear();
    // Bootstrap entries are invalidated by epoch rather than erased: the next
    // lookup re-runs the bootstrap query (identical rng stream and latency to
    // a fresh client) but reuses the entry's parsed hostname and map node —
    // the host set is stable across rebinds, so a warmed client re-bootstraps
    // without allocating (DESIGN.md §12).
    ++bootstrap_epoch_;
  }

  void reset_pool() { sessions_.clear(); }

  [[nodiscard]] util::Rng& rng() noexcept { return rng_; }

 private:
  struct Session {
    net::TcpConnection connection;
    bool intercepted;
    // The presented chain is read through connection.presented_chain() —
    // copying it per establish was the dominant allocation of a session
    // set-up (DESIGN.md §12).
  };

  const net::Network* network_;
  net::ClientContext context_;
  util::Rng rng_;
  Do53Client bootstrap_client_;
  std::unordered_map<std::uint64_t, Session> sessions_;
  /// Bootstrap cache: hostname -> resolved address (clients honour the A
  /// record's TTL; one cache per client session is the practical effect).
  /// The parsed hostname is epoch-independent and kept across rebinds; the
  /// address is valid only when `epoch` matches `bootstrap_epoch_`.
  struct Bootstrap {
    util::Ipv4 address;
    std::uint64_t epoch = 0;
    std::optional<dns::Name> name;  // parsed once per host, reused forever
  };
  std::unordered_map<std::string, Bootstrap> resolved_hosts_;
  std::uint64_t bootstrap_epoch_ = 1;
  /// Reused across queries so steady-state builds allocate nothing
  /// (DESIGN.md §11); wire bytes are staged in exec::thread_arena() leases.
  dns::Message query_scratch_;
  QueryOutcome bootstrap_scratch_;
  std::string b64_scratch_;
  http::ResponseView response_view_;
  net::TcpConnection::ExchangeResult exchange_scratch_;
};

}  // namespace encdns::client
