// Span recording and allocation counting for the traced benchmark run.
//
// Spans are recorded only from the benchmark's own main thread, around its
// calls into the library's public API, and kept in memory until the run
// writes them out. A span's self time is its duration minus the time its
// child spans cover; the root's self time is the unattributed remainder.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Operator-new calls counted across all threads while counting is on.
/// Counting is switched on only by the traced run.
void set_alloc_counting(bool on) noexcept;
[[nodiscard]] std::uint64_t allocs() noexcept;

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNoParent;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t allocs = 0;
  };
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  /// Interned span name, for hot loops that open many spans of one name.
  [[nodiscard]] std::uint32_t intern(std::string_view name);
  /// Reserve span storage so recording allocates nothing inside the run.
  void reserve(std::size_t spans) { spans_.reserve(spans); }

  /// Open a span as a child of the innermost open span; returns its index.
  std::uint32_t begin(std::uint32_t name);
  std::uint32_t begin(std::string_view name) { return begin(intern(name)); }
  /// Close a span, and with it any descendant still open (a "teardown" span
  /// opened before a scope's locals are destroyed ends with the root).
  void end(std::uint32_t span);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Sum of durations (s) and allocations of every closed span named `name`.
  [[nodiscard]] double total_seconds(std::string_view name) const;
  [[nodiscard]] std::uint64_t total_allocs(std::string_view name) const;
  /// Share of the first root span's duration covered by its direct children.
  [[nodiscard]] double coverage() const;

  /// Per-name table: count, total and self time, self share of the root,
  /// allocations. The root row's self time is the unattributed remainder.
  [[nodiscard]] std::string layer_table(const std::string& title) const;
  /// One span per line: index, parent, name, start and end (ns from the
  /// first span's start), allocations.
  [[nodiscard]] std::string spans_tsv() const;

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span; a null tracer records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name)
      : tracer_(tracer), span_(tracer ? tracer->begin(name) : 0) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t span_;
};

}  // namespace perfbench
