// The §5 usage study as a standalone program: 18 months of ISP NetFlow for
// DoT trends, and passive DNS for DoH bootstrap-domain lookups.
//
//   $ ./traffic_study
#include <cstdio>

#include "exec/executor.hpp"
#include "traffic/netflow_study.hpp"
#include "traffic/passive_dns.hpp"

using namespace encdns;

int main() {
  // --- DoT via NetFlow (Figures 11 and 12) -----------------------------------
  exec::WorkerPool pool;  // ENCDNS_THREADS, else one thread per core
  traffic::NetflowStudyConfig config;
  traffic::NetflowStudy study(config, traffic::big_resolver_address_list(),
                              pool);
  const auto netflow = study.run();

  std::printf("monthly sampled DoT flow records (1/%d packet sampling):\n",
              static_cast<int>(1.0 / config.sampling_rate));
  std::printf("  %-10s %12s %10s\n", "month", "cloudflare", "quad9");
  for (const auto& [month, count] : netflow.cloudflare_monthly) {
    const auto quad9 = netflow.quad9_monthly.find(month);
    std::printf("  %-10s %12llu %10llu\n", month.month_label().c_str(),
                static_cast<unsigned long long>(count),
                quad9 == netflow.quad9_monthly.end()
                    ? 0ULL
                    : static_cast<unsigned long long>(quad9->second));
  }
  std::printf("\nclient netblocks: %zu /24s, top-5 share %.1f%%, "
              "%.0f%% active < 1 week (%.1f%% of traffic)\n",
              netflow.netblocks.size(), 100 * netflow.top_share(5),
              100 * netflow.short_lived_block_fraction(7),
              100 * netflow.short_lived_traffic_share(7));
  std::printf("single-SYN records excluded: %llu; scanner-flagged client "
              "blocks: %zu\n\n",
              static_cast<unsigned long long>(netflow.excluded_single_syn),
              netflow.flagged_client_blocks);

  // --- DoH via passive DNS (Figure 13) ---------------------------------------
  const auto pdns = traffic::run_passive_dns_study();
  std::printf("DoH bootstrap domains with >10K total lookups (DNSDB-like):\n");
  for (const auto& domain : pdns.popular_domains(10000)) {
    const auto agg = pdns.aggregate_db.lookup(domain);
    std::printf("  %-28s first=%s last=%s total=%llu\n", domain.c_str(),
                agg->first_seen.to_string().c_str(),
                agg->last_seen.to_string().c_str(),
                static_cast<unsigned long long>(agg->total_count));
  }
  std::printf("\nCleanBrowsing DoH monthly trend (360-like daily store):\n");
  for (const auto& [month, count] :
       pdns.daily_db.monthly_series("doh.cleanbrowsing.org")) {
    std::printf("  %-10s %8llu\n", month.month_label().c_str(),
                static_cast<unsigned long long>(count));
  }
  return 0;
}
