#include "scan/permutation.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace encdns::scan {

std::uint64_t pow_mod(std::uint64_t base, std::uint64_t exp,
                      std::uint64_t mod) noexcept {
  if (mod <= 1) return 0;
  __uint128_t result = 1;
  __uint128_t b = base % mod;
  while (exp > 0) {
    if (exp & 1) result = result * b % mod;
    b = b * b % mod;
    exp >>= 1;
  }
  return static_cast<std::uint64_t>(result);
}

bool is_prime(std::uint64_t n) noexcept {
  if (n < 2) return false;
  for (std::uint64_t small : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL,
                              19ULL, 23ULL, 29ULL, 31ULL, 37ULL}) {
    if (n == small) return true;
    if (n % small == 0) return false;
  }
  // Miller-Rabin with a base set deterministic for all 64-bit integers.
  std::uint64_t d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  for (std::uint64_t a : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                          23ULL, 29ULL, 31ULL, 37ULL}) {
    std::uint64_t x = pow_mod(a, d, n);
    if (x == 1 || x == n - 1) continue;
    bool witness = true;
    for (int i = 0; i < r - 1; ++i) {
      x = static_cast<std::uint64_t>(
          static_cast<__uint128_t>(x) * x % n);
      if (x == n - 1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

std::uint64_t next_prime(std::uint64_t n) noexcept {
  if (n <= 2) return 2;
  std::uint64_t candidate = n | 1;  // odd
  while (!is_prime(candidate)) candidate += 2;
  return candidate;
}

std::vector<std::uint64_t> prime_factors(std::uint64_t n) {
  std::vector<std::uint64_t> factors;
  for (std::uint64_t f = 2; f * f <= n; f += (f == 2 ? 1 : 2)) {
    if (n % f == 0) {
      factors.push_back(f);
      while (n % f == 0) n /= f;
    }
  }
  if (n > 1) factors.push_back(n);
  return factors;
}

CyclicPermutation::CyclicPermutation(std::uint64_t n, std::uint64_t seed) : n_(n) {
  // Degenerate sizes: fall back to a trivial walk over a 2-element group.
  p_ = next_prime(n_ < 2 ? 3 : n_ + 1);
  const auto factors = prime_factors(p_ - 1);

  util::Rng rng(util::mix64(seed ^ p_));
  // Find a primitive root: g is a generator of Z_p^* iff g^((p-1)/q) != 1
  // for every prime factor q of p-1.
  for (;;) {
    const std::uint64_t candidate = 2 + rng.below(p_ - 3);
    bool primitive = true;
    for (const std::uint64_t q : factors) {
      if (pow_mod(candidate, (p_ - 1) / q, p_) == 1) {
        primitive = false;
        break;
      }
    }
    if (primitive) {
      g_ = candidate;
      break;
    }
  }
  start_ = 1 + rng.below(p_ - 1);  // any element of [1, p-1]
}

std::uint64_t CyclicPermutation::element_at(std::uint64_t step) const noexcept {
  return static_cast<std::uint64_t>(
      static_cast<__uint128_t>(start_) * pow_mod(g_, step, p_) % p_);
}

MulMod::MulMod(std::uint64_t factor, std::uint64_t mod) noexcept
    : factor_(factor),
      mod_(mod),
      quotient_(static_cast<std::uint64_t>(
          (static_cast<__uint128_t>(factor) << 64) / mod)) {}

CyclicPermutation::Walker CyclicPermutation::walk(
    std::uint64_t first_step, std::uint64_t last_step) const noexcept {
  first_step = std::min(first_step, steps());
  last_step = std::min(last_step, steps());
  const std::uint64_t count = last_step > first_step ? last_step - first_step : 0;
  return Walker(n_, MulMod(g_, p_), element_at(first_step), count);
}

std::optional<std::uint64_t> CyclicPermutation::Walker::next() noexcept {
  while (remaining_ > 0) {
    --remaining_;
    const std::uint64_t value = current_ - 1;  // group element -> index
    current_ = step_(current_);
    if (value < n_) return value;
  }
  return std::nullopt;
}

}  // namespace encdns::scan
