// ZMap's address-ordering trick (Durumeric et al., USENIX Security 2013):
// iterate the multiplicative group of integers modulo a prime p > n using a
// primitive root g, so every index in [0, n) is visited exactly once in an
// order that looks random — spreading probe load across networks without
// keeping per-address state.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace encdns::scan {

/// Deterministic Miller-Rabin for 64-bit integers.
[[nodiscard]] bool is_prime(std::uint64_t n) noexcept;

/// Smallest prime >= n.
[[nodiscard]] std::uint64_t next_prime(std::uint64_t n) noexcept;

/// Distinct prime factors (trial division; intended for p-1 of scan-sized p).
[[nodiscard]] std::vector<std::uint64_t> prime_factors(std::uint64_t n);

/// (base^exp) mod m without overflow.
[[nodiscard]] std::uint64_t pow_mod(std::uint64_t base, std::uint64_t exp,
                                    std::uint64_t mod) noexcept;

/// Multiplication by a fixed factor modulo a fixed modulus without a 128-bit
/// division (Shoup's precomputed quotient): w = floor(factor * 2^64 / mod)
/// makes floor(x * w / 2^64) the quotient or one less, so one conditional
/// subtraction finishes the product. Exact for every x, factor < mod < 2^63.
class MulMod {
 public:
  MulMod(std::uint64_t factor, std::uint64_t mod) noexcept;

  /// (x * factor) mod `mod`, for x < mod.
  [[nodiscard]] std::uint64_t operator()(std::uint64_t x) const noexcept {
    const auto q = static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(x) * quotient_) >> 64);
    const std::uint64_t r = x * factor_ - q * mod_;  // in [0, 2*mod)
    return r >= mod_ ? r - mod_ : r;
  }

 private:
  std::uint64_t factor_, mod_, quotient_;
};

/// A full-cycle permutation of [0, n). The walker steps the group with
/// MulMod, so n must stay below 2^63 (an IPv4 space is at most 2^32).
class CyclicPermutation {
 public:
  /// `seed` selects the generator and the starting point.
  CyclicPermutation(std::uint64_t n, std::uint64_t seed);

  [[nodiscard]] std::uint64_t size() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t prime() const noexcept { return p_; }
  [[nodiscard]] std::uint64_t generator() const noexcept { return g_; }

  /// Group steps in one full cycle (= p-1). Only steps whose element-1 falls
  /// below n emit an index, so steps() >= size().
  [[nodiscard]] std::uint64_t steps() const noexcept { return p_ - 1; }

  /// The group element visited at `step` (start * g^step mod p), computed in
  /// O(log step) — the jump that makes sharded sweeps possible.
  [[nodiscard]] std::uint64_t element_at(std::uint64_t step) const noexcept;

  /// A read-only cursor over the step range [first, last) of the cycle.
  /// Walking every shard of a partition of [0, steps()) visits exactly the
  /// indices the serial cycle visits, each exactly once.
  class Walker {
   public:
    /// The next index in [0, n), or nullopt once the range is exhausted.
    [[nodiscard]] std::optional<std::uint64_t> next() noexcept;

   private:
    friend class CyclicPermutation;
    Walker(std::uint64_t n, MulMod step, std::uint64_t current,
           std::uint64_t remaining) noexcept
        : n_(n), step_(step), current_(current), remaining_(remaining) {}
    std::uint64_t n_;
    MulMod step_;  // current -> current * g mod p
    std::uint64_t current_, remaining_;
  };
  [[nodiscard]] Walker walk(std::uint64_t first_step,
                            std::uint64_t last_step) const noexcept;

 private:
  std::uint64_t n_;
  std::uint64_t p_;      // prime > n
  std::uint64_t g_;      // primitive root mod p
  std::uint64_t start_;  // first group element
};

}  // namespace encdns::scan
