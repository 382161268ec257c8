// The §3 discovery pipeline as a standalone program: sweep the routable
// space on TCP/853 in ZMap order, probe responders with real DoT queries,
// verify certificates, group providers, and mine the URL dataset for DoH.
//
//   $ ./scan_campaign
#include <cstdio>

#include "exec/executor.hpp"
#include "scan/doh_prober.hpp"
#include "scan/scanner.hpp"
#include "util/stats.hpp"
#include "world/world.hpp"

using namespace encdns;

int main() {
  world::World world;
  exec::WorkerPool pool;  // ENCDNS_THREADS, else one thread per core

  scan::CampaignConfig config;
  config.scan_count = 2;
  config.interval_days = 89;  // Feb 1 and May 1 2019
  scan::Scanner scanner(world, config, pool);

  std::printf("scan space: %llu addresses across %zu prefixes\n\n",
              static_cast<unsigned long long>(scanner.space().size()),
              scanner.space().prefixes().size());

  for (const auto& snapshot : scanner.run_campaign()) {
    std::printf("--- scan %s ---\n", snapshot.date.to_string().c_str());
    std::printf("  probed:        %llu addresses\n",
                static_cast<unsigned long long>(snapshot.addresses_probed));
    std::printf("  port 853 open: %llu hosts\n",
                static_cast<unsigned long long>(snapshot.port_open));
    std::printf("  DoT resolvers: %zu (providers: %zu)\n",
                snapshot.resolvers.size(), snapshot.providers().size());
    std::printf("  invalid certs: %zu providers affected\n",
                snapshot.invalid_cert_providers().size());
    std::printf("  top countries:");
    int shown = 0;
    for (const auto& [country, count] : snapshot.by_country()) {
      if (shown++ == 6) break;
      std::printf(" %s=%.0f", country.c_str(), count);
    }
    std::printf("\n");
    // A few interesting resolvers: invalid certificates and wrong answers.
    int examples = 0;
    for (const auto& resolver : snapshot.resolvers) {
      if (!tls::is_invalid(resolver.cert_status) && resolver.answer_correct)
        continue;
      if (examples++ == 5) break;
      std::printf("    e.g. %-16s CN=%-22s %s%s\n",
                  resolver.address.to_string().c_str(), resolver.cert_cn.c_str(),
                  tls::to_string(resolver.cert_status).c_str(),
                  resolver.answer_correct ? "" : " [fixed/wrong answer]");
    }
    std::printf("\n");
  }

  // DoH discovery over the crawler URL dataset.
  scan::DohProber prober(world, world.make_clean_vantage("US"), 7);
  const auto discovery = prober.discover(world.url_dataset(), {2019, 3, 1});
  std::printf("--- DoH discovery ---\n");
  std::printf("  URLs: %zu, path candidates: %zu, valid DoH URLs: %zu\n",
              discovery.urls_in_dataset, discovery.path_candidates,
              discovery.valid_urls);
  std::printf("  resolvers found: %zu\n", discovery.resolvers.size());
  for (const auto& resolver : discovery.resolvers)
    std::printf("    %s\n", resolver.uri_template.c_str());
  return 0;
}
