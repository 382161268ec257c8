// Study-level checkpointing over the write-ahead journal (DESIGN.md §13).
//
// Study phases run as nodes of a task graph (DESIGN.md §15) and overlap, so
// every record carries only what one phase owns. Three record kinds:
//   phase:<name>    — the phase finished: its serialized results, a cursor
//                     holding only the proxy platform the phase advances
//                     (reading the other platform mid-overlap would race
//                     with the node that owns it) plus the cache entries the
//                     phase stored, and the phase's own metrics delta
//                     (attributed by its obs::PhaseTally).
//   partial:<name>  — the phase is mid-flight: the same layout, with the
//                     phase's block state in place of its results. Later
//                     partials supersede earlier ones.
//   obs:skeleton    — the registry's metric names, refreshed at every
//                     phase commit, so a resume can register the zero-valued
//                     metrics that delta records skip.
// Records are position-independent: resume replays the deltas additively,
// in canonical order, whatever order the killed run committed them in.
//
// Determinism-on-resume contract: phase execution consumes the proxy
// platforms' rng streams only in the serial acquire_batch prologue, and
// every other random draw is derived from (seed, global index). Restoring
// the pre-phase cursor therefore makes the rerun's recruitment identical to
// the killed run's; the resumed phase retracts the metrics its re-run
// prologue recorded, applies the partial's delta, and continues from the
// first uncommitted block.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cache/dns_cache.hpp"
#include "core/checkpoint/journal.hpp"
#include "exec/checkpoint_hook.hpp"
#include "obs/metrics.hpp"
#include "proxy/proxy.hpp"
#include "util/bytes.hpp"

namespace encdns::core {

/// Everything outside a phase's own results that must rewind with it: the
/// proxy platforms' recruitment cursors and the contents of every recursive
/// backend's record cache. Cache contents are NOT a behavioral no-op
/// mid-phase: shared lookups (DoH bootstrap names, repeated diagnostic
/// fetches) hit entries stored by earlier session blocks, and a hit answers
/// faster than a miss — so a resumed run must see exactly the cache the
/// killed run had.
struct WorldCursor {
  proxy::ProxyCursor global_platform;
  proxy::ProxyCursor cn_platform;
  std::vector<std::vector<cache::ExportedEntry>> caches;  // per backend
};

/// The canonical phase order (matches Study::observability_report).
[[nodiscard]] const std::vector<std::string>& canonical_phases();

// Byte codecs shared by checkpoint.cpp and the tests.
void encode_cursor(util::ByteWriter& w, const WorldCursor& cursor);
[[nodiscard]] WorldCursor decode_cursor(util::ByteReader& r);
void encode_metrics(util::ByteWriter& w, const obs::Snapshot& snap);
[[nodiscard]] obs::Snapshot decode_metrics(util::ByteReader& r);

class StudyCheckpoint {
 public:
  StudyCheckpoint(std::string dir, std::uint64_t fingerprint, bool resume);

  /// A decoded record: phase results (or block state for a partial), the
  /// phase's owned-platform cursor, and its own metrics delta.
  struct LoadedDelta {
    std::vector<std::uint8_t> state;
    WorldCursor cursor;
    obs::Snapshot delta;
  };

  /// Committed full-phase record, if any. Pure decode — the caller
  /// applies the delta (MetricsRegistry::apply_delta) and the cursor itself.
  [[nodiscard]] std::optional<LoadedDelta> load_phase_delta(
      const std::string& phase);

  /// Newest mid-flight partial for `phase`, if any. Its cursor is a hybrid:
  /// the pre-phase platform position (the phase prologue re-runs
  /// recruitment on resume) but the cache contents as of the save
  /// (completed blocks never re-run, so their cache stores must ride along).
  [[nodiscard]] std::optional<LoadedDelta> load_partial_delta(
      const std::string& phase);

  /// Journal a completed phase. `delta` is the phase's own attributed
  /// metrics delta; `cursor` carries only the platform the phase owns.
  /// Called from the task-graph driver (merge slots run in canonical order),
  /// possibly while other nodes are saving partials — all journal access is
  /// serialized internally.
  void commit_phase_delta(const std::string& phase,
                          const std::vector<std::uint8_t>& state,
                          const WorldCursor& cursor, const obs::Snapshot& delta);

  /// Newest registry name skeleton, if any phase commit has been made: the
  /// names / diagnostic flags / bucket bounds of every metric registered at
  /// that commit. Values are a mid-run mixture — feed the result only to
  /// MetricsRegistry::register_skeleton().
  [[nodiscard]] std::optional<obs::Snapshot> load_skeleton();

  /// Block-boundary hook handed to the phase via its config. load() decodes
  /// the newest partial and *applies* its metrics delta (additively,
  /// attributed to the calling thread's current PhaseTally, so the resumed
  /// phase's tally folds the killed run's progress in); save() journals a
  /// new partial whose delta is the calling thread's tally snapshot at that
  /// moment and whose cursor is the hybrid described at
  /// load_partial_delta(): platforms from `pre_cursor`, caches from
  /// `capture` at save time.
  [[nodiscard]] std::unique_ptr<exec::CheckpointHook> phase_delta_hook(
      const std::string& phase, const WorldCursor& pre_cursor,
      std::function<WorldCursor()> capture);

 private:
  friend class PhaseDeltaHookImpl;

  Journal journal_;
  /// Node threads save partials while the driver thread commits merges; the
  /// journal must only ever see one writer.
  mutable std::mutex mutex_;
};

}  // namespace encdns::core
