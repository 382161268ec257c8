// Strict environment-variable parsing, shared by every ENCDNS_* knob.
//
// The previous per-site parsers (strtol in the executor, atoll in the cache,
// a silent string match in the fault profile) all degraded malformed values
// to a default, so a typo like ENCDNS_THREADS=fuor ran the study
// single-threaded without a word. Here every accessor either returns the
// parsed value, returns nullopt (variable unset), or throws EnvError with a
// diagnostic naming the variable, the offending value, and the expected
// form — misconfiguration fails loudly before any phase runs.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace encdns::util {

/// Thrown when an ENCDNS_* variable is set to an unparseable value.
class EnvError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// String-level parsers behind the env_* accessors, shared with every other
/// text input (encdns_study's --seed and --deadline, the ENCDNS_DEADLINE_*
/// budgets). Each returns nullopt unless the whole of `text`, with no
/// leading or trailing whitespace, has the named form. Never throw.
///
/// Base-10 integer within 64-bit range (optional leading '-').
[[nodiscard]] std::optional<long long> parse_int(const std::string& text);

/// Non-negative base-10 integer within unsigned 64-bit range (digits only).
[[nodiscard]] std::optional<std::uint64_t> parse_u64(const std::string& text);

/// Finite decimal number (strtod must consume the whole text).
[[nodiscard]] std::optional<double> parse_double(const std::string& text);

/// Raw value, nullopt when unset. Never throws.
[[nodiscard]] std::optional<std::string> env_string(const char* name);

/// Strict base-10 integer (parse_int).
[[nodiscard]] std::optional<long long> env_int(const char* name);

/// Strict integer, additionally required to be > 0.
[[nodiscard]] std::optional<long long> env_positive_int(const char* name);

/// Strict finite double (parse_double).
[[nodiscard]] std::optional<double> env_double(const char* name);

/// Accepts on/off, true/false, 1/0 (case-insensitive).
[[nodiscard]] std::optional<bool> env_bool(const char* name);

}  // namespace encdns::util
