// Deterministic, seedable random number generation.
//
// All stochastic components of the simulator draw from an explicitly seeded
// Rng so that every experiment is exactly reproducible. The generator is
// xoshiro256** (public domain, Blackman & Vigna) seeded via SplitMix64.
//
// The class is header-only on purpose: substream derivation and the
// Box-Muller fading draw sit on the per-(gateway, packet) fast path of
// ScenarioRunner::run_window, and keeping the definitions visible lets the
// compiler inline them there. The arithmetic is identical to the previous
// out-of-line definitions, so all streams are unchanged.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <string_view>

namespace alphawan {

// Hard bound on |normal()|, in standard deviations. Box-Muller's radius is
// sqrt(-2 ln u1) and uniform() quantizes to multiples of 2^-53, so the
// largest radius any draw can realize is sqrt(-2 ln 2^-53) ~= 8.572. Code
// that prunes against a worst-case normal draw (e.g. the link cache's
// candidate gateway lists) may rely on this: no draw ever exceeds it.
inline constexpr double kNormalTailSigmas = 8.6;

namespace detail {

inline std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t v, int k) {
  return (v << k) | (v >> (64 - k));
}

}  // namespace detail

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  // Copies reproduce the generator state but deliberately drop the cached
  // Box-Muller half-pair: otherwise the copy and the original would both
  // return the same stale normal() sample, silently correlating streams.
  Rng(const Rng& other) : state_(other.state_), seed_(other.seed_) {}
  Rng& operator=(const Rng& other) {
    state_ = other.state_;
    seed_ = other.seed_;
    cached_normal_ = 0.0;
    has_cached_normal_ = false;
    return *this;
  }

  // Re-initialize in place, exactly as if freshly constructed with `seed`
  // (also discards any cached Box-Muller sample).
  void reseed(std::uint64_t seed) {
    seed_ = seed;
    std::uint64_t s = seed;
    for (auto& word : state_) {
      word = detail::splitmix64(s);
    }
    cached_normal_ = 0.0;
    has_cached_normal_ = false;
  }

  // The seed this generator (or substream) was created from. Unaffected by
  // draws; substreams derive from it, not from the evolving state.
  [[nodiscard]] std::uint64_t root_seed() const { return seed_; }

  // UniformRandomBitGenerator interface (usable with <random> adapters).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = detail::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = detail::rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  double uniform() {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  // Uniform double in [lo, hi). Interval order (lo then hi) is the
  // universal convention; swapping the bounds is caught by an assert.
  // ALPHAWAN-LINT-ALLOW(units-swappable-pair: (lo, hi) interval order)
  // NOLINTNEXTLINE(bugprone-easily-swappable-parameters)
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  // NOLINTNEXTLINE(bugprone-easily-swappable-parameters)
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(next());  // full range
    // Rejection-free modulo bias is negligible for our span sizes, but use
    // Lemire's multiply-shift reduction anyway.
    const unsigned __int128 product =
        static_cast<unsigned __int128>(next()) * span;
    return lo + static_cast<std::int64_t>(product >> 64);
  }
  // Standard normal via Box-Muller (cached second sample).
  double normal() {
    if (has_cached_normal_) {
      has_cached_normal_ = false;
      return cached_normal_;
    }
    double u1 = uniform();
    while (u1 <= 1e-300) u1 = uniform();
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * std::numbers::pi * u2;
    cached_normal_ = radius * std::sin(angle);
    has_cached_normal_ = true;
    return radius * std::cos(angle);
  }
  // Normal with given mean / standard deviation — the (mean, sigma)
  // order every math library uses.
  // ALPHAWAN-LINT-ALLOW(units-swappable-pair: (mean, sigma) convention)
  // NOLINTNEXTLINE(bugprone-easily-swappable-parameters)
  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }
  // Single normal draw for throwaway generators (no cached Box-Muller
  // sample pending): bit-identical value and state advance to
  // normal(mean, stddev) on a fresh generator, but skips computing and
  // caching the companion sample the caller will never consume. The
  // per-(gateway, packet) fading draw in run_window and the per-link
  // shadowing draw (ChannelModel::shadowing) are the intended users.
  // ALPHAWAN-LINT-ALLOW(units-swappable-pair: (mean, sigma) convention)
  // NOLINTNEXTLINE(bugprone-easily-swappable-parameters)
  double normal_once(double mean, double stddev) {
    double u1 = uniform();
    while (u1 <= 1e-300) u1 = uniform();
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * std::numbers::pi * u2;
    return mean + stddev * (radius * std::cos(angle));
  }
  // Exponential with given rate (lambda > 0).
  double exponential(double rate) {
    double u = uniform();
    while (u <= 1e-300) u = uniform();
    return -std::log(u) / rate;
  }
  // Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

  // Derive an independent child stream (for per-entity generators). The
  // child depends on the parent's current state, so fork order matters.
  Rng fork() { return Rng(next()); }

  // Named substreams: independent generators derived (via SplitMix64) from
  // the ROOT SEED only, never from the evolving state. The same root seed
  // and name always yield the same stream, no matter how many draws the
  // parent has made — this is what keeps simulation runs replayable when
  // engine refactors reorder intermediate draws.
  [[nodiscard]] Rng substream(std::string_view name) const {
    // FNV-1a over the name, then one SplitMix64 round against the root seed.
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const char c : name) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001B3ULL;
    }
    return substream(h);
  }
  [[nodiscard]] Rng substream(std::uint64_t a, std::uint64_t b = 0) const {
    std::uint64_t s = seed_;
    std::uint64_t mixed = detail::splitmix64(s) ^ a;
    mixed = detail::splitmix64(mixed) ^ b;
    return Rng(detail::splitmix64(mixed));
  }

 private:
  std::array<std::uint64_t, 4> state_{};
  std::uint64_t seed_ = 0;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

// A family of substreams sharing the first key: SubstreamBatch(root, a)
// then at(b) returns a generator bit-identical to root.substream(a, b),
// with the first SplitMix64 round (which depends only on the root seed and
// `a`) hoisted out of the per-`b` derivation. The batched fading kernel
// (phy/batch_kernels.hpp) uses one batch per (window, gateway) and derives
// the per-packet streams from it, so determinism — streams keyed by ids,
// never by iteration order — is preserved by construction.
class SubstreamBatch {
 public:
  SubstreamBatch(const Rng& root, std::uint64_t a) {
    std::uint64_t s = root.root_seed();
    partial_ = detail::splitmix64(s) ^ a;
  }

  [[nodiscard]] Rng at(std::uint64_t b) const {
    std::uint64_t mixed = partial_;
    mixed = detail::splitmix64(mixed) ^ b;
    return Rng(detail::splitmix64(mixed));
  }

 private:
  std::uint64_t partial_ = 0;
};

}  // namespace alphawan
