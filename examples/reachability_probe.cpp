// The §4 client-side experiment as a standalone program: recruit vantage
// points through both proxy platforms, run the Figure 7 reachability
// workflow, and print Table 4-style results plus the failure diagnoses.
//
//   $ ./reachability_probe
#include <cstdio>

#include "exec/executor.hpp"
#include "measure/reachability.hpp"
#include "proxy/proxy.hpp"
#include "world/world.hpp"

using namespace encdns;

namespace {

void print_results(const measure::ReachabilityResults& results) {
  std::printf("--- %s: %zu clients, %zu countries, %zu ASes ---\n",
              results.platform.c_str(), results.dataset.distinct_ips,
              results.dataset.countries, results.dataset.ases);
  for (const char* resolver : {"Cloudflare", "Google", "Quad9", "Self-built"}) {
    for (const auto protocol :
         {measure::Protocol::kDo53, measure::Protocol::kDoT,
          measure::Protocol::kDoH}) {
      const auto& cell = results.cell(resolver, protocol);
      if (cell.total() == 0) continue;
      std::printf("  %-10s %-4s correct=%6.2f%% incorrect=%6.2f%% failed=%6.2f%%\n",
                  resolver, to_string(protocol).c_str(),
                  100 * cell.fraction(measure::Outcome::kCorrect),
                  100 * cell.fraction(measure::Outcome::kIncorrect),
                  100 * cell.fraction(measure::Outcome::kFailed));
    }
  }
  if (!results.conflict_diagnoses.empty()) {
    std::printf("  1.1.1.1 conflict diagnoses: %zu clients; examples:\n",
                results.conflict_diagnoses.size());
    int shown = 0;
    for (const auto& diagnosis : results.conflict_diagnoses) {
      if (diagnosis.webpage_excerpt.empty() || shown++ == 3) continue;
      std::printf("    %s (%s): webpage \"%.40s...\"\n",
                  diagnosis.client_address.slash24().to_string().c_str(),
                  diagnosis.country.c_str(), diagnosis.webpage_excerpt.c_str());
    }
  }
  if (!results.interceptions.empty()) {
    std::printf("  TLS-intercepted clients: %zu; CAs seen:\n",
                results.interceptions.size());
    for (const auto& record : results.interceptions)
      std::printf("    %s (%s) CA=\"%s\" 853=%s\n",
                  record.client_address.slash24().to_string().c_str(),
                  record.country.c_str(), record.untrusted_ca_cn.c_str(),
                  record.port_853 ? "yes" : "no");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  world::World world;
  exec::WorkerPool pool;  // ENCDNS_THREADS, else one thread per core

  proxy::ProxyConfig global_config;  // ProxyRack-like, worldwide
  proxy::ProxyNetwork global(world, global_config, 101);
  measure::ReachabilityConfig config;
  config.client_count = 2500;
  measure::ReachabilityTest global_test(world, global, config, pool);
  print_results(global_test.run());

  proxy::ProxyConfig cn_config;  // Zhima-like, censored network
  cn_config.name = "Zhima";
  cn_config.kind = proxy::PlatformKind::kCensoredCn;
  proxy::ProxyNetwork censored(world, cn_config, 102);
  config.client_count = 1500;
  config.seed = 103;
  measure::ReachabilityTest cn_test(world, censored, config, pool);
  print_results(cn_test.run());
  return 0;
}
