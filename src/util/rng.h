// Deterministic random number generation.
//
// Every stochastic component (field models, workload generators, the
// collision model) draws from an explicitly seeded `Rng` so that each test
// and benchmark run is exactly reproducible.  Sub-streams are derived with
// `Fork` so that adding a consumer does not perturb the draws seen by
// existing consumers.
#pragma once

#include <cstdint>
#include <random>
#include <span>

namespace ttmqo {

/// A seeded pseudo-random source with convenience samplers.
class Rng {
 public:
  /// Creates a generator from a 64-bit seed.  Equal seeds give equal streams.
  explicit Rng(std::uint64_t seed);

  /// Derives an independent sub-stream; deterministic in (parent seed, salt).
  Rng Fork(std::uint64_t salt) const;

  /// The seed of `Rng(parent_seed).Fork(salt)`, derived without seeding a
  /// parent engine.
  static std::uint64_t ForkSeed(std::uint64_t parent_seed,
                                std::uint64_t salt);

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Fills `out` with the first `out.size()` values that
  /// `Rng(seed).UniformInt(lo, hi)` would return, without seeding the
  /// engine's full state: the first eight raw outputs need only 164 of its
  /// 312 seeded words (DESIGN.md note 24).
  static void FirstUniformInts(std::uint64_t seed, std::int64_t lo,
                               std::int64_t hi, std::span<std::int64_t> out);

  /// Standard normal scaled to (mean, stddev).
  double Gaussian(double mean, double stddev);

  /// Exponentially distributed value with the given mean (> 0).
  double Exponential(double mean);

  /// Bernoulli trial with success probability p in [0, 1].
  bool Bernoulli(double p);

  /// Picks an index in [0, n) uniformly; n must be positive.
  std::size_t Index(std::size_t n);

  /// The seed this generator was constructed with.
  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
  std::mt19937_64 engine_;
};

}  // namespace ttmqo
