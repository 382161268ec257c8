// The server-side interface of the simulated internet.
//
// A Service is anything reachable at an address: a public resolver PoP, a
// small DoT server, a conflicting CPE device squatting on 1.1.1.1, or a
// background host with a stray open port. Services see application payloads
// after transport (and conceptual TLS) framing has been stripped.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/geo.hpp"
#include "sim/duration.hpp"
#include "tls/certificate.hpp"
#include "util/date.hpp"
#include "util/ipv4.hpp"

namespace encdns::net {

enum class Transport { kUdp, kTcp };

[[nodiscard]] constexpr const char* to_string(Transport t) noexcept {
  return t == Transport::kUdp ? "udp" : "tcp";
}

/// One application-layer request as delivered to a Service.
struct WireRequest {
  Transport transport = Transport::kTcp;
  util::Ipv4 dst;
  std::uint16_t port = 0;
  /// TLS server name (empty for clear-text or no-SNI). Like `payload`, a
  /// view into the caller's storage, valid for the duration of the call.
  std::string_view sni;
  std::span<const std::uint8_t> payload;
  util::Date date;         // simulation date of the request
  Location client;         // where the client appears from
  Location pop;            // which PoP location answered (set by the network)
};

/// The service's answer to one request.
struct WireReply {
  bool responded = false;            // false = silently dropped / no answer
  std::vector<std::uint8_t> payload;
  sim::Millis processing{0.5};       // server-side time before the answer

  [[nodiscard]] static WireReply none() { return WireReply{}; }
  [[nodiscard]] static WireReply of(std::vector<std::uint8_t> bytes,
                                    sim::Millis processing = sim::Millis{0.5}) {
    WireReply r;
    r.responded = true;
    r.payload = std::move(bytes);
    r.processing = processing;
    return r;
  }
};

/// `handle_to`'s reply metadata: the payload bytes live in the caller's
/// buffer, so only the flags travel by value.
struct ServiceReply {
  bool responded = false;
  sim::Millis processing{0.5};
};

class Service {
 public:
  virtual ~Service() = default;

  /// Human-readable identity for reports ("Cloudflare DoT pop-ams", ...).
  [[nodiscard]] virtual std::string label() const = 0;

  /// Whether a transport-level handshake succeeds on (port, transport) —
  /// i.e. the SYN scanner sees the port as open.
  [[nodiscard]] virtual bool accepts(std::uint16_t port, Transport transport) const = 0;

  /// Certificate chain presented when a TLS client connects to `port` with
  /// server name `sni`. nullptr means the port does not speak TLS (handshake
  /// failure). The date matters: rotated/expired certs differ over time.
  /// The returned chain is owned by the service and must stay valid for the
  /// service's lifetime (services outlive every connection to them).
  [[nodiscard]] virtual const tls::CertificateChain* certificate(
      std::uint16_t port, const std::string& sni, const util::Date& date) const {
    (void)port;
    (void)sni;
    (void)date;
    return nullptr;
  }

  /// Handle one request/response exchange.
  [[nodiscard]] virtual WireReply handle(const WireRequest& request) = 0;

  /// Slot-reusing twin of `handle` (DESIGN.md §12): the reply payload is
  /// written into `out` (cleared first, capacity preserved) so transports can
  /// stage replies in warmed per-thread buffers. The default bridges to
  /// `handle`; hot services override this and implement `handle` on top, so
  /// the two stay byte-identical by construction.
  [[nodiscard]] virtual ServiceReply handle_to(const WireRequest& request,
                                               std::vector<std::uint8_t>& out) {
    WireReply reply = handle(request);
    out.assign(reply.payload.begin(), reply.payload.end());
    return ServiceReply{reply.responded, reply.processing};
  }

  /// Body served for a plain-HTTP GET on `port` (the §4.2 webpage check used
  /// to identify devices conflicting with 1.1.1.1). Empty = no webpage.
  [[nodiscard]] virtual std::string webpage(std::uint16_t port) const {
    (void)port;
    return {};
  }
};

}  // namespace encdns::net
