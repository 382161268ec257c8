// The one-line JSON record a benchmark process prints for run.py: flat
// numeric values plus a few named string maps (digests, failures).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Result {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  void set_count(const std::string& name, std::uint64_t value) {
    counts_[name] = value;
  }
  void set_digest(const std::string& name, std::uint64_t digest) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    digests_[name] = hex;
  }
  void attempt(std::uint64_t checks = 1) { attempted_ += checks; }
  /// `count` attempted checks failed, for the reason `what`.
  void fail(std::string what, std::uint64_t count = 1) {
    failed_ += count;
    failures_.push_back(std::move(what));
  }

  [[nodiscard]] std::string to_json() const {
    std::string out = "{\"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"failures\": [";
    for (std::size_t i = 0; i < failures_.size(); ++i)
      out += (i ? ", " : "") + quote(failures_[i]);
    out += "], \"values\": {";
    bool first = true;
    for (const auto& [name, value] : values_) {
      char num[64];
      std::snprintf(num, sizeof(num), "%.9g", std::isfinite(value) ? value : 0.0);
      out += (first ? "" : ", ") + quote(name) + ": " + num;
      first = false;
    }
    out += "}, \"counts\": {";
    first = true;
    for (const auto& [name, value] : counts_) {
      out += (first ? "" : ", ") + quote(name) + ": " + std::to_string(value);
      first = false;
    }
    out += "}, \"digests\": {";
    first = true;
    for (const auto& [name, value] : digests_) {
      out += (first ? "" : ", ") + quote(name) + ": " + quote(value);
      first = false;
    }
    return out + "}}";
  }

 private:
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      out += c;
    }
    return out + "\"";
  }

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, double> values_;
  std::map<std::string, std::uint64_t> counts_;
  std::map<std::string, std::string> digests_;
};

}  // namespace perfbench
