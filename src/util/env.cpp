#include "util/env.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace encdns::util {
namespace {

[[noreturn]] void fail(const char* name, const std::string& value,
                       const char* expected) {
  throw EnvError(std::string(name) + "=\"" + value +
                 "\" is invalid: expected " + expected);
}

// strto* silently skip leading whitespace; the parsers below reject it (and
// the empty string) up front, and reject any unconsumed tail after parsing.
bool nonblank_start(const std::string& text) {
  return !text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front())) == 0;
}

}  // namespace

std::optional<long long> parse_int(const std::string& text) {
  if (!nonblank_start(text)) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno == ERANGE || end == text.c_str() || *end != '\0') return std::nullopt;
  return value;
}

std::optional<std::uint64_t> parse_u64(const std::string& text) {
  // strtoull negates a leading '-' into a huge value; digits only.
  if (text.empty() || !std::all_of(text.begin(), text.end(), [](unsigned char c) {
        return std::isdigit(c) != 0;
      }))
    return std::nullopt;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE) return std::nullopt;
  return value;
}

std::optional<double> parse_double(const std::string& text) {
  if (!nonblank_start(text)) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value))
    return std::nullopt;
  return value;
}

std::optional<std::string> env_string(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return std::nullopt;
  return std::string(raw);
}

std::optional<long long> env_int(const char* name) {
  const auto raw = env_string(name);
  if (!raw) return std::nullopt;
  const auto value = parse_int(*raw);
  if (!value) fail(name, *raw, "a base-10 integer within 64-bit range");
  return value;
}

std::optional<long long> env_positive_int(const char* name) {
  const auto value = env_int(name);
  if (value && *value <= 0) fail(name, std::to_string(*value), "an integer > 0");
  return value;
}

std::optional<double> env_double(const char* name) {
  const auto raw = env_string(name);
  if (!raw) return std::nullopt;
  const auto value = parse_double(*raw);
  if (!value) fail(name, *raw, "a finite decimal number");
  return value;
}

std::optional<bool> env_bool(const char* name) {
  const auto raw = env_string(name);
  if (!raw) return std::nullopt;
  std::string value = *raw;
  std::transform(value.begin(), value.end(), value.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (value == "on" || value == "true" || value == "1") return true;
  if (value == "off" || value == "false" || value == "0") return false;
  fail(name, *raw, "on/off, true/false or 1/0");
}

}  // namespace encdns::util
