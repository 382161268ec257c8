#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace {

// Per-thread slots keep the counting operator new from contending on one
// cache line when the study's worker threads allocate concurrently.
constexpr std::size_t kSlots = 64;
struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
};
Slot g_slots[kSlots];
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_next_slot{0};

void count_alloc() noexcept {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  thread_local const std::size_t slot =
      g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  g_slots[slot].count.fetch_add(1, std::memory_order_relaxed);
}

void* checked_malloc(std::size_t size) {
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) {
  count_alloc();
  return checked_malloc(size);
}
void* operator new[](std::size_t size) {
  count_alloc();
  return checked_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

void set_alloc_counting(bool on) noexcept {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t allocs() noexcept {
  std::uint64_t total = 0;
  for (const Slot& slot : g_slots)
    total += slot.count.load(std::memory_order_relaxed);
  return total;
}

std::uint32_t Tracer::intern(std::string_view name) {
  const auto it = ids_.find(std::string(name));
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

std::uint32_t Tracer::begin(std::uint32_t name) {
  const auto index = static_cast<std::uint32_t>(spans_.size());
  Span span;
  span.name = name;
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.allocs = allocs();
  span.start_ns = now_ns();
  spans_.push_back(span);
  open_.push_back(index);
  return index;
}

void Tracer::end(std::uint32_t index) {
  const std::uint64_t end_ns = now_ns();
  const std::uint64_t end_allocs = allocs();
  while (!open_.empty()) {
    const std::uint32_t top = open_.back();
    open_.pop_back();
    spans_[top].end_ns = end_ns;
    spans_[top].allocs = end_allocs - spans_[top].allocs;
    if (top == index) break;
  }
}

double Tracer::total_seconds(std::string_view name) const {
  const auto it = ids_.find(std::string(name));
  if (it == ids_.end()) return 0.0;
  std::uint64_t ns = 0;
  for (const Span& span : spans_)
    if (span.name == it->second) ns += span.end_ns - span.start_ns;
  return static_cast<double>(ns) * 1e-9;
}

std::uint64_t Tracer::total_allocs(std::string_view name) const {
  const auto it = ids_.find(std::string(name));
  if (it == ids_.end()) return 0;
  std::uint64_t total = 0;
  for (const Span& span : spans_)
    if (span.name == it->second) total += span.allocs;
  return total;
}

double Tracer::coverage() const {
  if (spans_.empty()) return 0.0;
  std::uint64_t covered = 0;
  for (const Span& span : spans_)
    if (span.parent == 0) covered += span.end_ns - span.start_ns;
  const Span& root = spans_.front();
  return static_cast<double>(covered) /
         static_cast<double>(root.end_ns - root.start_ns);
}

std::string Tracer::layer_table(const std::string& title) const {
  struct Row {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t child_ns = 0;
    std::uint64_t allocs = 0;
  };
  std::vector<Row> rows(names_.size());
  for (const Span& span : spans_) {
    const std::uint64_t ns = span.end_ns - span.start_ns;
    Row& row = rows[span.name];
    ++row.count;
    row.total_ns += ns;
    row.allocs += span.allocs;
    if (span.parent != kNoParent) rows[spans_[span.parent].name].child_ns += ns;
  }
  const double root_ns =
      spans_.empty()
          ? 1.0
          : static_cast<double>(spans_.front().end_ns - spans_.front().start_ns);
  std::string out = title + "\n";
  char line[256];
  std::snprintf(line, sizeof(line), "  %-34s %9s %12s %12s %7s %12s\n", "span",
                "count", "total_ms", "self_ms", "self%", "allocs");
  out += line;
  for (std::size_t id = 0; id < rows.size(); ++id) {
    const Row& row = rows[id];
    const std::uint64_t self_ns = row.total_ns - row.child_ns;
    std::snprintf(line, sizeof(line),
                  "  %-34s %9llu %12.3f %12.3f %6.2f%% %12llu\n",
                  names_[id].c_str(), static_cast<unsigned long long>(row.count),
                  static_cast<double>(row.total_ns) * 1e-6,
                  static_cast<double>(self_ns) * 1e-6,
                  100.0 * static_cast<double>(self_ns) / root_ns,
                  static_cast<unsigned long long>(row.allocs));
    out += line;
  }
  // Roll the self times up by layer, the span name's first component.
  std::vector<std::pair<std::string, std::uint64_t>> layers;
  for (std::size_t id = 0; id < rows.size(); ++id) {
    const std::string layer = names_[id].substr(0, names_[id].find('.'));
    auto it = std::find_if(layers.begin(), layers.end(),
                           [&](const auto& entry) { return entry.first == layer; });
    if (it == layers.end()) it = layers.insert(layers.end(), {layer, 0});
    it->second += rows[id].total_ns - rows[id].child_ns;
  }
  out += "  self time by layer (the root's self time is the unattributed remainder)\n";
  for (const auto& [layer, self_ns] : layers) {
    std::snprintf(line, sizeof(line), "  %-34s %12.3f ms %6.2f%%\n",
                  (layer == names_[spans_.front().name] ? "unattributed" : layer.c_str()),
                  static_cast<double>(self_ns) * 1e-6,
                  100.0 * static_cast<double>(self_ns) / root_ns);
    out += line;
  }
  return out;
}

std::string Tracer::spans_tsv() const {
  std::string out = "index\tparent\tname\tstart_ns\tend_ns\tallocs\n";
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof(line), "%zu\t%lld\t%s\t%llu\t%llu\t%llu\n", i,
                  span.parent == kNoParent ? -1LL
                                           : static_cast<long long>(span.parent),
                  names_[span.name].c_str(),
                  static_cast<unsigned long long>(span.start_ns - origin),
                  static_cast<unsigned long long>(span.end_ns - origin),
                  static_cast<unsigned long long>(span.allocs));
    out += line;
  }
  return out;
}

}  // namespace perfbench
