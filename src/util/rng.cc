#include "util/rng.h"

#include <array>
#include <optional>

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

// The raw outputs of a freshly seeded std::mt19937_64, computed from the
// words they read.  The engine's first regeneration sets word i < 156 from
// seeded words i, i + 1 and i + 156, and output i is that word tempered, so
// outputs 0-7 need seeded words 0-163 of 312.  A ninth output comes from a
// full engine, seeded alike and advanced past the eight.
class EnginePrefix {
 public:
  using Engine = std::mt19937_64;
  using result_type = Engine::result_type;

  static constexpr result_type min() { return Engine::min(); }
  static constexpr result_type max() { return Engine::max(); }

  explicit EnginePrefix(result_type engine_seed) : engine_seed_(engine_seed) {
    // The standard's seeding recurrence, stopped at the last word read.
    std::array<result_type, Engine::shift_size + kOutputs> word;
    word[0] = engine_seed;
    for (std::size_t i = 1; i < word.size(); ++i) {
      const result_type prev = word[i - 1];
      word[i] = Engine::initialization_multiplier *
                    (prev ^ (prev >> (Engine::word_size - 2))) +
                i;
    }
    // One twist step and the tempering per output.
    constexpr result_type kLowerMask =
        (result_type{1} << Engine::mask_bits) - 1;
    for (std::size_t i = 0; i < kOutputs; ++i) {
      const result_type y =
          (word[i] & ~kLowerMask) | (word[i + 1] & kLowerMask);
      result_type z = word[i + Engine::shift_size] ^ (y >> 1) ^
                      ((y & 1) != 0 ? Engine::xor_mask : 0);
      z ^= (z >> Engine::tempering_u) & Engine::tempering_d;
      z ^= (z << Engine::tempering_s) & Engine::tempering_b;
      z ^= (z << Engine::tempering_t) & Engine::tempering_c;
      z ^= z >> Engine::tempering_l;
      outputs_[i] = z;
    }
  }

  result_type operator()() {
    if (next_ < kOutputs) return outputs_[next_++];
    if (!tail_) {
      tail_.emplace(engine_seed_);
      tail_->discard(kOutputs);
    }
    return (*tail_)();
  }

 private:
  static constexpr std::size_t kOutputs = 8;
  static_assert(kOutputs < Engine::shift_size,
                "outputs past the shift read words the first twist rewrote");

  result_type engine_seed_;
  std::array<result_type, kOutputs> outputs_;
  std::size_t next_ = 0;
  std::optional<Engine> tail_;
};

// The one distribution `UniformInt` and `FirstUniformInts` run, so that
// both turn equal raw outputs into equal values.
template <typename Generator>
std::int64_t DrawInt(Generator& generator, std::int64_t lo, std::int64_t hi) {
  CheckArg(lo <= hi, "Rng::UniformInt: lo must be <= hi");
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(generator);
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
  return DrawInt(engine_, lo, hi);
}

void Rng::FirstUniformInts(std::uint64_t seed, std::int64_t lo,
                           std::int64_t hi, std::span<std::int64_t> out) {
  EnginePrefix generator(Mix(seed));
  for (std::int64_t& value : out) value = DrawInt(generator, lo, hi);
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
