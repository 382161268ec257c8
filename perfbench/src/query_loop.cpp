// query_loop: one thread, one World, one clean US vantage, a closed loop of
// single queries through the query_*_into client calls the study uses.
//
// Half the names are unique probe names, which defeat caching as the §4.1
// method does; half are Zipf draws over a fixed set of probe-zone names, so
// repeats hit the resolvers' DnsCache. The traced run also replays the
// loop's own messages, chains and requests through the dns, tls and http
// public calls to time them in isolation.
#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "client/do53.hpp"
#include "client/doh.hpp"
#include "client/dot.hpp"
#include "core/study.hpp"
#include "dns/message.hpp"
#include "dns/query.hpp"
#include "dns/wire.hpp"
#include "http/message.hpp"
#include "http/url.hpp"
#include "obs/metrics.hpp"
#include "tls/verify.hpp"
#include "util/base64.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"
#include "world/world.hpp"

namespace perfbench {
namespace {

using namespace encdns;

constexpr const char* kTransports[] = {"do53_udp", "do53_tcp", "dot", "doh_get"};
constexpr int kTransportCount = 4;
constexpr std::size_t kZoneNames = 10000;
constexpr std::uint64_t kZoneSeed = 0x5eed2019;  // the fixed name set
constexpr const char* kDohTemplate =
    "https://mozilla.cloudflare-dns.com/dns-query{?dns}";
constexpr const char* kDohHost = "mozilla.cloudflare-dns.com";
/// One query of each transport in every kReplayStride is kept for the replay.
constexpr std::size_t kReplayStride = 64;

/// Zipf(s = 1) over ranks [0, n) by inverted CDF.
class Zipf {
 public:
  explicit Zipf(std::size_t n) : cdf_(n) {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) cdf_[r] = total += 1.0 / (r + 1.0);
    for (double& c : cdf_) c /= total;
  }
  [[nodiscard]] std::size_t draw(util::Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

double percentile_us(std::vector<std::uint32_t> ns, double q) {
  if (ns.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(ns.size() - 1));
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(k), ns.end());
  return ns[k] * 1e-3;
}

template <typename Fn>
double mean_ns(std::size_t reps, Fn&& fn) {
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0; i < reps; ++i) fn(i);
  return static_cast<double>(now_ns() - start) / static_cast<double>(reps);
}

}  // namespace

Result run_query_loop(const RepOptions& options) {
  Result result;
  Tracer* tracer = options.tracer;
  if (tracer) tracer->reserve(options.full ? 600000 : 60000);
  ScopedSpan root(tracer, "workload");
  const std::size_t measured = options.full ? 400000 : 20000;
  const std::size_t warmup = measured / 10;

  std::optional<world::World> world;
  {
    ScopedSpan span(tracer, "setup");
    world::WorldConfig config;
    config.seed = options.seed;
    timed_setup(result, world, config);
  }
  if (options.setup_only) return result;

  // --- inputs: made from the seed before anything is timed ---------------
  std::vector<dns::Name> zone;
  std::vector<dns::Name> unique;
  std::vector<const dns::Name*> sequence;
  {
    ScopedSpan span(tracer, "inputs");
    util::Rng zone_rng(kZoneSeed);
    zone.reserve(kZoneNames);
    for (std::size_t i = 0; i < kZoneNames; ++i)
      zone.push_back(world->unique_probe_name(zone_rng));
    util::Rng rng(util::mix64(options.input_seed));
    const Zipf zipf(kZoneNames);
    unique.reserve(warmup + measured);
    sequence.reserve(warmup + measured);
    for (std::size_t i = 0; i < warmup + measured; ++i) {
      if (rng.chance(0.5)) {
        unique.push_back(world->unique_probe_name(rng));
        sequence.push_back(&unique.back());
      } else {
        sequence.push_back(&zone[zipf.draw(rng)]);
      }
    }
  }

  const world::Vantage vantage = world->make_clean_vantage("US");
  const util::Date day{2019, 3, 10};
  const auto& network = world->network();
  client::Do53Client udp(network, vantage.context, options.input_seed ^ 31);
  client::Do53Client tcp(network, vantage.context, options.input_seed ^ 32);
  client::DotClient dot(network, vantage.context, options.input_seed ^ 33);
  client::DohClient doh(network, vantage.context, options.input_seed ^ 34);
  const client::Do53Client::Options do53_options{};
  const client::DotClient::Options dot_options{};
  client::DohClient::Options doh_options;
  doh_options.bootstrap_resolver = world::addrs::kGooglePrimary;
  const auto doh_uri = http::UriTemplate::parse(kDohTemplate);
  client::QueryOutcome outcomes[kTransportCount];
  // A stream session lasts as long as one client round of the study's
  // performance phase (§4.3), which opens fresh clients and sends
  // queries_per_protocol queries per transport over reused connections. So
  // the loop pays a connection, and for DoT and DoH a TLS handshake, on
  // 1 / queries_per_protocol of their queries.
  const auto session_queries = static_cast<std::uint64_t>(
      (options.full ? core::StudyConfig::full() : core::StudyConfig::quick())
          .performance.queries_per_protocol);

  std::uint64_t issued[kTransportCount] = {};
  const auto query = [&](int transport, const dns::Name& qname) {
    client::QueryOutcome& out = outcomes[transport];
    const bool new_session = issued[transport]++ % session_queries == 0;
    switch (transport) {
      case 0:
        udp.query_udp_into(world::addrs::kGooglePrimary, qname, dns::RrType::kA,
                           day, do53_options, out);
        break;
      case 1:
        if (new_session) tcp.reset_pool();
        tcp.query_tcp_into(world::addrs::kCloudflarePrimary, qname,
                           dns::RrType::kA, day, do53_options, out);
        break;
      case 2:
        if (new_session) dot.reset_pool();
        dot.query_into(world::addrs::kCloudflarePrimary, qname, dns::RrType::kA,
                       day, dot_options, out);
        break;
      default:
        if (new_session) doh.reset_pool();
        doh.query_into(*doh_uri, qname, dns::RrType::kA, day, doh_options, out);
        break;
    }
    return &out;
  };

  {
    ScopedSpan span(tracer, "query.warmup");
    for (std::size_t i = 0; i < warmup; ++i)
      (void)query(static_cast<int>(i % kTransportCount), *sequence[i]);
  }

  // --- the measured loop ---------------------------------------------------
  std::uint32_t span_ids[kTransportCount] = {};
  if (tracer)
    for (int t = 0; t < kTransportCount; ++t)
      span_ids[t] = tracer->intern(std::string("client.") + kTransports[t]);
  std::vector<std::uint32_t> latency_ns(measured);
  std::uint64_t sent[kTransportCount] = {};
  std::uint64_t new_connections[kTransportCount] = {};
  std::uint64_t allocs_by_transport[kTransportCount] = {};
  std::uint64_t modelled_losses = 0;
  std::uint64_t not_ok = 0;
  std::uint64_t wrong = 0;
  std::vector<dns::Message> replay_responses;
  std::vector<const dns::Name*> replay_names;
  std::optional<tls::CertificateChain> dot_chain;
  std::optional<tls::CertificateChain> doh_chain;
  const obs::Snapshot cache_before = obs::MetricsRegistry::global().snapshot();
  const double cpu_start = cpu_seconds();
  const std::uint64_t loop_start = now_ns();
  {
    ScopedSpan loop_span(tracer, "query.loop");
    for (std::size_t i = 0; i < measured; ++i) {
      const int transport = static_cast<int>(i % kTransportCount);
      const dns::Name& qname = *sequence[warmup + i];
      const std::uint32_t span = tracer ? tracer->begin(span_ids[transport]) : 0;
      const std::uint64_t start = now_ns();
      const client::QueryOutcome* out = query(transport, qname);
      latency_ns[i] = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(now_ns() - start, UINT32_MAX));
      if (tracer) {
        tracer->end(span);
        allocs_by_transport[transport] += tracer->spans()[span].allocs;
      }
      ++sent[transport];
      if (!out->reused_connection) ++new_connections[transport];
      if (out->status != client::QueryStatus::kOk) {
        ++not_ok;
        // A lost datagram on the vantage's lossy link is the modelled
        // outcome; anything else is a defect.
        if (transport == 0 && out->status == client::QueryStatus::kTimeout) {
          ++modelled_losses;
        } else {
          ++wrong;
        }
        continue;
      }
      if (!out->answered() || out->response->first_a() != world->probe_answer())
        ++wrong;
      if (tracer && i % kReplayStride < kTransportCount) {
        replay_responses.push_back(*out->response);
        replay_names.push_back(&qname);
        if (transport == 2 && !dot_chain && out->cert_status)
          dot_chain = out->presented_chain;
        if (transport == 3 && !doh_chain && out->cert_status)
          doh_chain = out->presented_chain;
      }
    }
  }
  const double wall_s = static_cast<double>(now_ns() - loop_start) * 1e-9;
  const double cpu_s = cpu_seconds() - cpu_start;
  const obs::Snapshot cache_after = obs::MetricsRegistry::global().snapshot();

  result.set("wall_s", wall_s);
  result.set("cpu_s", cpu_s);
  result.set("peak_rss_mib", peak_rss_mib());
  result.set("query.qps", static_cast<double>(measured) / wall_s);
  result.set("query.p50_us", percentile_us(latency_ns, 0.50));
  result.set("query.p99_us", percentile_us(latency_ns, 0.99));
  result.set("query.samples", static_cast<double>(measured));
  result.set("query.failed_share",
             static_cast<double>(not_ok) / static_cast<double>(measured));
  const double loss_rate = vantage.context.link.loss_rate;
  result.set("query.modelled_loss_share", loss_rate / kTransportCount);
  result.set("exec.busy_share", cpu_s / wall_s);

  // --- output checks ---------------------------------------------------------
  result.attempt(measured);
  if (wrong > 0)
    result.fail(std::to_string(wrong) + " queries returned a wrong outcome", wrong);
  // The UDP losses must match the link's modelled loss rate (5 sigma).
  result.attempt();
  const double n_udp = static_cast<double>(sent[0]);
  const double tolerance = 5.0 * std::sqrt(loss_rate * (1.0 - loss_rate) * n_udp) + 1.0;
  if (std::abs(static_cast<double>(modelled_losses) - loss_rate * n_udp) > tolerance)
    result.fail("do53_udp losses " + std::to_string(modelled_losses) + " of " +
                std::to_string(sent[0]) + " stray from the modelled rate");

  // --- per-layer values ------------------------------------------------------
  const auto delta = [&](const char* name) {
    return static_cast<double>(counter(cache_after, name) -
                               counter(cache_before, name));
  };
  const double hits = delta("cache.lookup.hit") + delta("cache.lookup.warm_hit");
  const double lookups = hits + delta("cache.lookup.miss") +
                         delta("cache.lookup.negative_hit") +
                         delta("cache.lookup.stale");
  result.set("cache.hit_share", lookups > 0 ? hits / lookups : 0.0);
  result.set("cache.evict", delta("cache.entry.evict"));
  result.set("cache.lookup.stale", delta("cache.lookup.stale"));
  result.set("resolver.upstream_queries", delta("cache.lookup.miss"));
  const std::uint64_t handshakes = new_connections[2] + new_connections[3];
  result.set("tls.handshakes", static_cast<double>(handshakes));

  for (int t = 0; t < kTransportCount; ++t) {
    std::vector<std::uint32_t> mine;
    mine.reserve(sent[t]);
    for (std::size_t i = static_cast<std::size_t>(t); i < measured; i += kTransportCount)
      mine.push_back(latency_ns[i]);
    const std::string prefix = std::string("client.") + kTransports[t];
    result.set(prefix + ".p50_us", percentile_us(mine, 0.50));
    result.set(prefix + ".p99_us", percentile_us(mine, 0.99));
    // Every UDP query is its own exchange; the stream transports amortise
    // one connection (and, for DoT/DoH, one handshake) over a session.
    result.set(prefix + ".queries_per_session",
               t == 0 ? 1.0
                      : static_cast<double>(sent[t]) /
                            static_cast<double>(std::max<std::uint64_t>(
                                new_connections[t], 1)));
    if (tracer)
      result.set(prefix + ".allocs_per_query",
                 static_cast<double>(allocs_by_transport[t]) /
                     static_cast<double>(sent[t]));
  }

  if (tracer) {
    // Replay the loop's own messages through the codec, TLS and HTTP calls.
    // Per-query costs: a query is encoded by the client and decoded by the
    // server, its response encoded by the server and decoded by the client.
    ScopedSpan replay_span(tracer, "query.replay");
    const std::size_t n = replay_responses.size();
    // Inputs first, untimed: the loop's queries rebuilt, both messages'
    // wire forms, and the DoH GET request and response around them.
    std::vector<dns::Message> queries(n);
    std::vector<std::vector<std::uint8_t>> query_wire(n), response_wire(n);
    std::vector<http::Request> requests(n);
    std::vector<std::vector<std::uint8_t>> request_wire(n), http_response_wire(n);
    for (std::size_t i = 0; i < n; ++i) {
      dns::build_query_into(queries[i], *replay_names[i], dns::RrType::kA,
                            static_cast<std::uint16_t>(i));
      dns::WireWriter query_writer(query_wire[i]);
      queries[i].encode_into(query_writer);
      dns::WireWriter response_writer(response_wire[i]);
      replay_responses[i].encode_into(response_writer);
      requests[i].target = "/dns-query?dns=" + util::base64url_encode(query_wire[i]);
      requests[i].headers.set("Host", kDohHost);
      requests[i].headers.set("Accept", http::kDnsMessageType);
      request_wire[i] = requests[i].serialize();
      http::serialize_simple_response_into(200, "OK", http::kDnsMessageType,
                                           response_wire[i], http_response_wire[i]);
    }
    std::vector<std::uint8_t> scratch;
    double encode_ns = 0.0, decode_ns = 0.0;
    {
      ScopedSpan span(tracer, "dns.encode");
      for (const auto* messages : {&queries, &replay_responses})
        encode_ns += mean_ns(n, [&](std::size_t i) {
          scratch.clear();
          dns::WireWriter writer(scratch);
          (*messages)[i].encode_into(writer);
        });
    }
    {
      ScopedSpan span(tracer, "dns.decode");
      dns::Message decoded;
      bool ok = true;
      for (const auto* wires : {&query_wire, &response_wire})
        decode_ns += mean_ns(n, [&](std::size_t i) {
          ok &= dns::Message::decode_into((*wires)[i], decoded);
        });
      result.attempt();
      if (!ok) result.fail("a replayed message failed to decode");
    }
    result.set("dns.encode_ns", encode_ns);
    result.set("dns.decode_ns", decode_ns);

    double verify_us = 0.0;
    {
      ScopedSpan span(tracer, "tls.verify");
      constexpr std::size_t kVerifies = 2000;
      const tls::TrustStore& store = tls::TrustStore::mozilla();
      int chains = 0;
      if (dot_chain) {
        verify_us += mean_ns(kVerifies, [&](std::size_t) {
          (void)tls::verify_path(*dot_chain, store, day);
        }) * 1e-3;
        ++chains;
      }
      if (doh_chain) {
        verify_us += mean_ns(kVerifies, [&](std::size_t) {
          (void)tls::verify_host(*doh_chain, kDohHost, store, day);
        }) * 1e-3;
        ++chains;
      }
      if (chains > 0) verify_us /= chains;
    }
    result.set("tls.verify_us", verify_us);

    double serialize_ns = 0.0, parse_ns = 0.0;
    {
      ScopedSpan span(tracer, "http");
      serialize_ns += mean_ns(n, [&](std::size_t i) {
        std::vector<std::uint8_t> wire = requests[i].serialize();
        scratch.swap(wire);
      });
      serialize_ns += mean_ns(n, [&](std::size_t i) {
        scratch.clear();
        http::serialize_simple_response_into(200, "OK", http::kDnsMessageType,
                                             response_wire[i], scratch);
      });
      http::RequestView request_view;
      http::ResponseView response_view;
      bool ok = true;
      parse_ns += mean_ns(n, [&](std::size_t i) {
        ok &= request_view.parse_from(request_wire[i]);
      });
      parse_ns += mean_ns(n, [&](std::size_t i) {
        ok &= response_view.parse_from(http_response_wire[i]) &&
              response_view.status() == 200;
      });
      result.attempt();
      if (!ok) result.fail("a replayed HTTP message failed to parse");
    }
    result.set("http.serialize_ns", serialize_ns);
    result.set("http.parse_ns", parse_ns);

    // What the codec, TLS and HTTP calls account for inside the loop; the
    // rest is net simulation, resolver/cache and client logic.
    const double attributed_ns =
        static_cast<double>(measured) * (encode_ns + decode_ns) +
        static_cast<double>(sent[3]) * (serialize_ns + parse_ns) +
        static_cast<double>(handshakes) * verify_us * 1e3;
    const double loop_ns = tracer->total_seconds("query.loop") * 1e9;
    result.set("query.unattributed_share",
               loop_ns > 0 ? std::max(0.0, 1.0 - attributed_ns / loop_ns) : 0.0);
  }
  // The world, clients and inputs are destroyed under this span, which
  // closes with the root.
  if (tracer) tracer->begin("teardown");
  return result;
}

}  // namespace perfbench
