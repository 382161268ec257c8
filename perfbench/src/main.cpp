// encdns_perfbench: one repetition of one benchmark workload, in a fresh
// process. run.py drives it; see perfbench/README.md.
//
//   encdns_perfbench --workload study|query_loop [--seed N] [--input-seed N]
//                    [--scale full|quick] [--threads N] [--trace 0|1]
//                    [--journal-dir DIR] [--serial-phases 0|1]
//                    [--setup-only 0|1] [--trace-out PREFIX]
//
// The last stdout line is a JSON record of measured values, output digests,
// work counts and failed checks. With --trace 1 the run records spans and
// counts allocations; the per-layer table goes to stdout before the record
// and, with --trace-out, to PREFIX.layers.txt beside PREFIX.spans.tsv.
#include <sys/resource.h>

#include <cstdio>
#include <ctime>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "workloads.hpp"

namespace perfbench {

std::uint64_t counter(const encdns::obs::Snapshot& snapshot,
                      const std::string& name) {
  for (const auto& sample : snapshot.counters)
    if (sample.name == name) return sample.value;
  return 0;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: encdns_perfbench --workload study|query_loop [--seed N]\n"
               "  [--input-seed N] [--scale full|quick] [--threads N]\n"
               "  [--trace 0|1] [--journal-dir DIR | --serial-phases 0|1]\n"
               "  [--setup-only 0|1] [--trace-out PREFIX]\n");
  return 2;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string scale = "full";
  std::string trace_out;
  bool traced = false;
  RepOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--input-seed") options.input_seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--scale") scale = value;
    else if (flag == "--threads") options.threads = static_cast<unsigned>(std::atoi(value.c_str()));
    else if (flag == "--trace") traced = value == "1";
    else if (flag == "--journal-dir") options.journal_dir = value;
    else if (flag == "--trace-out") trace_out = value;
    else if (flag == "--serial-phases") options.serial_phases = value == "1";
    else if (flag == "--setup-only") options.setup_only = value == "1";
    else return usage();
  }
  if (argc % 2 == 0 || (scale != "full" && scale != "quick") ||
      options.threads == 0 || (workload != "study" && workload != "query_loop") ||
      (options.serial_phases && !options.journal_dir.empty()))
    return usage();
  options.full = scale == "full";

  Tracer tracer;
  if (traced) {
    options.tracer = &tracer;
    set_alloc_counting(true);
  }
  try {
    Result result = workload == "study" ? run_study(options) : run_query_loop(options);
    set_alloc_counting(false);
    if (traced) {
      result.set("trace.coverage", tracer.coverage());
      const std::string table = tracer.layer_table(
          "per-layer spans (" + workload + ", " + scale + " scale)");
      std::fputs(table.c_str(), stdout);
      if (!trace_out.empty() &&
          !(write_file(trace_out + ".layers.txt", table) &&
            write_file(trace_out + ".spans.tsv", tracer.spans_tsv()))) {
        std::fprintf(stderr, "cannot write trace files at %s\n", trace_out.c_str());
        return 1;
      }
    }
    std::printf("%s\n", result.to_json().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "encdns_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
