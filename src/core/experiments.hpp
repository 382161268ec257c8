// The experiment registry: one entry per table/figure of the paper. Every
// runner returns a util::Table computed from a Study, and the entry carries
// the paper's own reference values for it.
// `encdns_study --id <id>` prints both; the registry is the only way in.
#pragma once

#include <string>
#include <vector>

#include "core/study.hpp"
#include "util/table.hpp"

namespace encdns::core {

struct Experiment {
  std::string id;     // "table4", "fig9", ...
  std::string title;  // paper caption
  // What the paper reports for this experiment, one printed line each
  // (empty for workflow diagrams and extensions beyond the paper).
  std::vector<std::string> paper;
  util::Table (*run)(Study&) = nullptr;  // static tables ignore the study
};

/// All experiments in paper order.
[[nodiscard]] const std::vector<Experiment>& all_experiments();

}  // namespace encdns::core
