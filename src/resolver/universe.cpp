#include "resolver/universe.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace encdns::resolver {

Answer Answer::a_record(const dns::Name& name, util::Ipv4 addr, std::uint32_t ttl) {
  Answer a;
  a.answers.push_back(dns::ResourceRecord::a(name, addr, ttl));
  return a;
}

void AuthoritativeUniverse::add_zone(Zone zone) {
  apex_index_.try_emplace(zone.apex.canonical(), zones_.size());
  max_apex_labels_ = std::max(max_apex_labels_, zone.apex.label_count());
  zones_.push_back(std::move(zone));
}

const Zone* AuthoritativeUniverse::find_zone(const dns::Name& qname) const {
  return find_zone(qname, qname.canonical());
}

const Zone* AuthoritativeUniverse::find_zone(const dns::Name& qname,
                                             std::string_view canonical) const {
  // Walk the label-boundary suffixes of "l0.l1.….ln." longest first, from
  // the longest any apex has; the root apex is ".". A suffix string can
  // equal an apex whose labels differ (a wire label may contain a dot), so
  // every index hit is confirmed label by label.
  const auto& labels = qname.labels();
  const std::size_t first =
      labels.size() > max_apex_labels_ ? labels.size() - max_apex_labels_ : 0;
  std::size_t offset = 0;
  for (std::size_t i = 0; i < first; ++i) offset += labels[i].size() + 1;
  for (std::size_t i = first; i <= labels.size(); ++i) {
    const std::string_view suffix =
        i < labels.size() ? canonical.substr(offset) : std::string_view(".");
    if (const auto it = apex_index_.find(suffix); it != apex_index_.end()) {
      const Zone& zone = zones_[it->second];
      if (qname.is_subdomain_of(zone.apex)) return &zone;
    }
    if (i < labels.size()) offset += labels[i].size() + 1;
  }
  return nullptr;
}

Answer AuthoritativeUniverse::unknown_answer(const dns::Name& qname,
                                             dns::RrType type) const {
  if (!synthesize_unknown_) return Answer::nxdomain();
  // Deterministic pseudo-content: the same name always maps to the same
  // address, so repeated background lookups are cache-coherent.
  if (type != dns::RrType::kA) return Answer{};
  const std::uint64_t h = util::fnv1a(qname.canonical());
  return Answer::a_record(
      qname, util::Ipv4{static_cast<std::uint32_t>(0x0B000000u | (h & 0x00FFFFFF))});
}

Answer AuthoritativeUniverse::authoritative_answer(const Zone* zone,
                                                   const dns::Name& qname,
                                                   dns::RrType type,
                                                   const util::Date& date) const {
  return zone != nullptr ? zone->answer_fn(qname, type, date)
                         : unknown_answer(qname, type);
}

AuthoritativeUniverse::Upstream AuthoritativeUniverse::query(
    const Zone* zone, const dns::Name& qname, dns::RrType type,
    const net::Location& from, const util::Date& date, util::Rng& rng) const {
  Upstream up;
  up.answer = authoritative_answer(zone, qname, type, date);

  net::GeoPoint ns_geo;
  sim::Millis extra{0.0};
  double extra_tail = 0.0;
  if (zone != nullptr) {
    ns_geo = zone->ns_location.geo;
    extra = zone->extra_latency;
    extra_tail = zone->extra_tail_probability;
  } else if (synthesize_unknown_) {
    // Synthesized nameservers are scattered: derive a stable location.
    const std::uint64_t h = util::fnv1a(qname.canonical());
    ns_geo.lat = static_cast<double>((h >> 24) % 120) - 60.0;
    ns_geo.lon = static_cast<double>((h >> 32) % 360) - 180.0;
  } else {
    ns_geo = from.geo;  // negative answer synthesized nearby (root/TLD cache)
  }

  const sim::Millis ns_rtt = net::propagation_rtt(from.geo, ns_geo) + sim::Millis{2.0};
  const double round_trips =
      rng.uniform(latency_.min_round_trips, latency_.max_round_trips);
  sim::Millis latency =
      (ns_rtt * round_trips) * rng.lognormal(1.0, latency_.jitter_sigma) + extra;
  if (rng.chance(latency_.tail_probability + extra_tail)) {
    latency += ns_rtt * rng.uniform(latency_.tail_rtt_multiplier_min,
                                    latency_.tail_rtt_multiplier_max);
  }
  up.latency = latency;
  return up;
}

}  // namespace encdns::resolver
