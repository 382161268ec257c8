// study_full and campaign_faults_journal: the user's `encdns_study --full`
// path, end to end, through the public core API.
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint/checkpoint.hpp"
#include "core/experiments.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace encdns;

/// Each phase's deterministic work units (obs counters). They must match the
/// reference exactly on every run, at any thread count and schedule.
constexpr const char* kWorkCounters[] = {
    "scan.engine.tx",          "scan.probe.attempts",
    "scan.sweep.open",         "scan.doh.urls",
    "scan.doh_scan.probes",    "scan.local_probe.probes",
    "certs.analyzed",          "measure.reach.sessions",
    "measure.reach.queries",   "measure.perf.sessions",
    "measure.perf.clients",    "measure.no_reuse.queries",
    "traffic.netflow.flows",   "traffic.netflow.records",
    "traffic.trend.records",   "traffic.trend.days",
    "traffic.pdns.records",
};

/// Counters reported as per-layer metrics as they are.
constexpr const char* kLayerCounters[] = {
    "exec.tasks",          "exec.jobs",
    "exec.steals",         "scan.engine.tx",
    "scan.probe.attempts", "scan.engine.retransmits",
    "scan.probe.breaker_skips", "measure.reach.queries",
    "proxy.acquires",      "proxy.failovers",
    "cache.lookup.stale",
};

/// Forces one canonical phase through its public accessor.
void force(core::Study& study, const std::string& phase) {
  if (phase == "scan_campaign") (void)study.scans();
  else if (phase == "doh_discovery") (void)study.doh_discovery();
  else if (phase == "doh_scan") (void)study.doh_scan();
  else if (phase == "local_probe") (void)study.local_probe();
  else if (phase == "reachability_global") (void)study.reachability_global();
  else if (phase == "reachability_cn") (void)study.reachability_cn();
  else if (phase == "performance") (void)study.performance();
  else if (phase == "no_reuse") (void)study.no_reuse();
  else if (phase == "netflow") (void)study.netflow();
  else if (phase == "netflow_trend") (void)study.netflow_trend();
  else if (phase == "passive_dns") (void)study.passive_dns();
}

/// Bytes on disk and record count of a checkpoint directory; the records are
/// walked by their headers (u32 key_len, u32 body_len, u64 checksum).
struct JournalStats {
  std::uint64_t bytes = 0;    // every file in the directory
  std::uint64_t records = 0;
};

JournalStats journal_stats(const std::string& dir) {
  JournalStats stats;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec))
    if (entry.is_regular_file()) stats.bytes += entry.file_size();
  std::FILE* file = std::fopen((dir + "/journal.bin").c_str(), "rb");
  if (file == nullptr) return stats;
  constexpr long kHeaderBytes = 24;
  std::fseek(file, kHeaderBytes, SEEK_SET);
  unsigned char head[16];
  while (std::fread(head, 1, sizeof head, file) == sizeof head) {
    const auto u32 = [&](int at) {
      return static_cast<long>(head[at]) | static_cast<long>(head[at + 1]) << 8 |
             static_cast<long>(head[at + 2]) << 16 |
             static_cast<long>(head[at + 3]) << 24;
    };
    if (std::fseek(file, u32(0) + u32(4), SEEK_CUR) != 0) break;
    ++stats.records;
  }
  std::fclose(file);
  return stats;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Result run_study(const RepOptions& options) {
  Result result;
  Tracer* tracer = options.tracer;
  ScopedSpan root(tracer, "workload");

  core::StudyConfig config = options.full ? core::StudyConfig::full()
                                          : core::StudyConfig::quick();
  config.world.seed = options.seed;
  config.thread_count = options.threads;

  std::optional<core::Study> study;
  {
    ScopedSpan span(tracer, "setup");
    timed_setup(result, study, config);
  }
  if (options.setup_only) return result;
  const std::uint64_t start = now_ns();
  const double cpu_start = cpu_seconds();

  if (!options.journal_dir.empty()) {
    ScopedSpan span(tracer, "checkpoint.open");
    study->enable_checkpoint(options.journal_dir, /*resume=*/false);
  }
  if (options.serial_phases) {
    for (const auto& phase : core::canonical_phases()) {
      ScopedSpan span(tracer, "core.phase." + phase);
      force(*study, phase);
    }
  }
  const core::ObservabilityReport* report = nullptr;
  {
    ScopedSpan span(tracer, "core.report");
    report = &study->observability_report();
  }
  std::vector<std::pair<std::string, util::Table>> tables;
  {
    ScopedSpan span(tracer, "core.tables");
    for (const auto& experiment : core::all_experiments()) {
      ScopedSpan table_span(tracer, "core.table." + experiment.id);
      tables.emplace_back(experiment.id, experiment.run(*study));
      (void)tables.back().second.render();  // what encdns_study prints
    }
  }
  std::vector<core::FindingCheck> findings;
  {
    ScopedSpan span(tracer, "core.findings");
    findings = core::evaluate_findings(*study);
  }
  const double wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  const double cpu_s = cpu_seconds() - cpu_start;
  result.set("wall_s", wall_s);
  result.set("cpu_s", cpu_s);
  result.set("peak_rss_mib", peak_rss_mib());

  // --- output checks (run.py compares digests and counts to the reference)
  {
    ScopedSpan span(tracer, "checks");
    for (const auto& [id, table] : tables)
      result.set_digest("table." + id, util::fnv1a(table.to_json()));
    result.set_digest("obs", util::fnv1a(report->to_json()));
    std::uint64_t passed = 0;
    for (const auto& finding : findings) {
      result.attempt();
      if (finding.ok) {
        ++passed;
      } else {
        result.fail(finding.id + ": " + finding.measured);
      }
    }
    result.set_count("findings.passed", passed);
    result.set_count("findings.total", findings.size());
    for (const char* name : kWorkCounters)
      result.set_count(std::string("work.") + name,
                       counter(report->metrics, name));

    if (!options.journal_dir.empty()) {
      const JournalStats journal = journal_stats(options.journal_dir);
      result.set("checkpoint.journal_bytes", static_cast<double>(journal.bytes));
      result.set("checkpoint.records", static_cast<double>(journal.records));
    }
  }

  // --- per-layer values ----------------------------------------------------
  const obs::Snapshot& m = report->metrics;
  const auto c = [&](const char* name) {
    return static_cast<double>(counter(m, name));
  };
  for (const char* name : kLayerCounters) result.set(name, c(name));
  result.set("scan.open_share", ratio(c("scan.sweep.open"), c("scan.engine.tx")));
  const double lookups = c("cache.lookup.hit") + c("cache.lookup.warm_hit") +
                         c("cache.lookup.miss") + c("cache.lookup.negative_hit") +
                         c("cache.lookup.stale");
  result.set("cache.hit_share",
             ratio(c("cache.lookup.hit") + c("cache.lookup.warm_hit"), lookups));
  result.set("cache.evict", c("cache.entry.evict"));
  result.set("resolver.upstream_queries", c("cache.lookup.miss"));

  const fault::RobustnessReport& robustness = report->robustness;
  const std::pair<const char*, const fault::LayerTally*> layers[] = {
      {"client", &robustness.client},
      {"scanner", &robustness.scanner},
      {"proxy", &robustness.proxy},
      {"resolver", &robustness.resolver},
  };
  for (const auto& [layer, tally] : layers) {
    const std::string prefix = std::string("fault.") + layer;
    result.set(prefix + ".injected", static_cast<double>(tally->injected));
    result.set(prefix + ".recovered", static_cast<double>(tally->recovered));
    result.set(prefix + ".surfaced", static_cast<double>(tally->surfaced));
  }
  const fault::LayerTally total = robustness.total();
  result.set("fault.recovered_share",
             ratio(static_cast<double>(total.recovered),
                   static_cast<double>(total.injected)));
  result.set("exec.busy_share", ratio(cpu_s, wall_s * options.threads));

  if (tracer && options.serial_phases) {
    double phase_sum = 0.0;
    for (const auto& phase : core::canonical_phases()) {
      const double s = tracer->total_seconds("core.phase." + phase);
      result.set("core.phase." + phase + ".s", s);
      phase_sum += s;
    }
    result.set("core.phase_sum_s", phase_sum);
    result.set("core.tables.s", tracer->total_seconds("core.tables"));
    const auto phase_s = [&](const char* phase) {
      return tracer->total_seconds(std::string("core.phase.") + phase);
    };
    const auto phase_allocs = [&](const char* phase) {
      return static_cast<double>(
          tracer->total_allocs(std::string("core.phase.") + phase));
    };
    result.set("scan.tx_per_s", ratio(c("scan.engine.tx"), phase_s("scan_campaign")));
    result.set("scan.allocs_per_probe",
               ratio(phase_allocs("scan_campaign"), c("scan.engine.tx")));
    const auto reach = [&](const char* platform, const char* phase,
                           const measure::ReachabilityResults& r) {
      const double clients = static_cast<double>(r.clients);
      result.set(std::string("measure.reach.") + platform + ".us_per_client",
                 ratio(phase_s(phase) * 1e6, clients));
      result.set(std::string("measure.reach.") + platform + ".allocs_per_client",
                 ratio(phase_allocs(phase), clients));
    };
    reach("global", "reachability_global", study->reachability_global());
    reach("cn", "reachability_cn", study->reachability_cn());
    const double perf_queries =
        static_cast<double>(config.performance.client_count) *
        config.performance.queries_per_protocol * 3.0;
    result.set("measure.perf.us_per_query",
               ratio(phase_s("performance") * 1e6, perf_queries));
    result.set("measure.perf.allocs_per_query",
               ratio(phase_allocs("performance"), perf_queries));
    result.set("measure.doh_discovery.us_per_check",
               ratio(phase_s("doh_discovery") * 1e6, c("scan.doh.urls")));
    result.set("traffic.netflow.flows_per_s",
               ratio(c("traffic.netflow.flows"), phase_s("netflow")));
    result.set("traffic.trend.flows_per_s",
               ratio(c("traffic.trend.records"), phase_s("netflow_trend")));
    result.set("traffic.allocs_per_flow",
               ratio(phase_allocs("netflow") + phase_allocs("netflow_trend"),
                     c("traffic.netflow.flows") + c("traffic.trend.records")));
  }
  // Destroying the study is not part of wall_s; the span covers it and
  // every other local, and closes with the root.
  if (tracer) tracer->begin("teardown");
  return result;
}

}  // namespace perfbench
