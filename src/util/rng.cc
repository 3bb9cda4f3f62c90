#include "util/rng.h"

#include "util/check.h"

namespace ttmqo {
namespace {

// SplitMix64 step; used to decorrelate fork salts from the parent seed.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed), engine_(Mix(seed)) {}

Rng Rng::Fork(std::uint64_t salt) const { return Rng(ForkSeed(seed_, salt)); }

std::uint64_t Rng::ForkSeed(std::uint64_t parent_seed, std::uint64_t salt) {
  return Mix(parent_seed ^ Mix(salt));
}

double Rng::Uniform(double lo, double hi) {
  CheckArg(lo <= hi, "Rng::Uniform: lo must be <= hi");
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  CheckArg(lo <= hi, "Rng::UniformInt: lo must be <= hi");
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::Gaussian(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

double Rng::Exponential(double mean) {
  CheckArg(mean > 0, "Rng::Exponential: mean must be positive");
  std::exponential_distribution<double> dist(1.0 / mean);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  CheckArg(p >= 0.0 && p <= 1.0, "Rng::Bernoulli: p must be in [0,1]");
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

std::size_t Rng::Index(std::size_t n) {
  CheckArg(n > 0, "Rng::Index: n must be positive");
  std::uniform_int_distribution<std::size_t> dist(0, n - 1);
  return dist(engine_);
}

}  // namespace ttmqo
