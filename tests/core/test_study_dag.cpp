// Study-level task-graph execution (DESIGN.md §15): kill-chaos resume under
// overlapping phases and after accessors forced outside the graph, and the
// per-phase deadline-token regressions.
#include <gtest/gtest.h>
#include <signal.h>
#include <stdlib.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/study.hpp"
#include "obs/metrics.hpp"

namespace encdns::core {
namespace {

class StudyDagTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/encdns_dag_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    // Pin a small worker pool so phases genuinely overlap; results must not
    // depend on it (that is the contract under test).
    ::setenv("ENCDNS_THREADS", "3", 1);
  }

  void TearDown() override {
    ::unsetenv("ENCDNS_THREADS");
    ::unsetenv("ENCDNS_DEADLINE_SCAN");
    ::unsetenv("ENCDNS_DEADLINE_DOH_SCAN");
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
};

// The doh_scan phase budgets under ENCDNS_DEADLINE_DOH_SCAN through its OWN
// token. Regression: it used to share scan_cancel_, so a sweep that
// exhausted the scan budget zeroed out doh-scan coverage through the
// already-tripped token.
TEST_F(StudyDagTest, DohScanDeadlineIsIndependentOfTheScanBudget) {
  // A wall budget this small is exhausted long before the campaign's first
  // block boundary; the doh-scan phase gets a generous budget of its own.
  ::setenv("ENCDNS_DEADLINE_SCAN", "0.0001", 1);
  ::setenv("ENCDNS_DEADLINE_DOH_SCAN", "60", 1);
  Study study(StudyConfig::quick());
  (void)study.scans();
  const PhaseCoverage scan_coverage = study.phase_coverage("scan_campaign");
  EXPECT_TRUE(scan_coverage.degraded())
      << "the scan budget was expected to trip (completed "
      << scan_coverage.completed << "/" << scan_coverage.planned << ")";
  EXPECT_GT(study.doh_scan().addresses_probed, 0u)
      << "doh_scan must run on a fresh token, not the tripped scan token";
}

// Kill the DAG run at an arbitrary journal commit — overlapping phases are
// mid-flight — then resume from the journal and require the report to match
// an uninterrupted run byte for byte.
TEST_F(StudyDagTest, ResumeAfterMidRunKillMatchesUninterruptedReport) {
  // The child re-runs the study with the kill fuse armed; the journal layer
  // raises SIGKILL at the configured commit, so the process dies with
  // committed phases, a partial delta, and live node threads all at once.
  EXPECT_EXIT(
      {
        ::setenv("ENCDNS_CHECKPOINT_KILL_AFTER", "3", 1);
        Study victim(StudyConfig::quick());
        victim.enable_checkpoint(dir_, /*resume=*/false);
        (void)victim.observability_report();
        std::_Exit(0);  // unreachable: the fuse fires first
      },
      ::testing::KilledBySignal(SIGKILL), "");

  Study reference(StudyConfig::quick());
  const std::string expected = reference.observability_report().to_json();

  Study resumed(StudyConfig::quick());
  resumed.enable_checkpoint(dir_, /*resume=*/true);
  EXPECT_EQ(resumed.observability_report().to_json(), expected);
}

// Regression: an accessor forced outside observability_report() with a
// journal attached used to write the retired absolute records, and the
// report's resume pass then threw "corrupt phase-delta record". The forced
// accessor now runs as a one-node graph through the delta protocol, so the
// sequence survives a SIGKILL at any commit — during the forced phase or
// during the graph that follows — and resumes to the uninterrupted report.
TEST_F(StudyDagTest, ForcedAccessorBeforeReportResumesAfterKill) {
  // The registry is process-wide and a study with forced accessors does not
  // reset it, so each sequence starts from a zeroed registry.
  const auto run_sequence = [](const std::string& dir, bool resume) {
    obs::MetricsRegistry::global().reset();
    Study study(StudyConfig::quick());
    study.enable_checkpoint(dir, resume);
    EXPECT_GT(study.reachability_global().clients, 0u);
    return study.observability_report().to_json();
  };
  const std::string expected = run_sequence(dir_ + "/reference", false);

  // Commit 2 lands inside the forced reachability phase (a partial); commit
  // 12 lands in the graph, after the forced phase committed.
  for (const char* kill_after : {"2", "12"}) {
    const std::string journal = dir_ + "/kill" + kill_after;
    EXPECT_EXIT(
        {
          ::setenv("ENCDNS_CHECKPOINT_KILL_AFTER", kill_after, 1);
          (void)run_sequence(journal, false);
          std::_Exit(0);  // unreachable: the fuse fires first
        },
        ::testing::KilledBySignal(SIGKILL), "");
    EXPECT_EQ(run_sequence(journal, true), expected)
        << "killed at commit " << kill_after;
  }
}

}  // namespace
}  // namespace encdns::core
