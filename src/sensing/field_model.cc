#include "sensing/field_model.h"

#include <cmath>
#include <numbers>

#include "util/check.h"

namespace ttmqo {
namespace {

// Stateless 64-bit mix (SplitMix64 finalizer): the basis of pure sampling.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t HashKey(std::uint64_t seed, NodeId node, Attribute attr,
                      std::int64_t time_bucket) {
  std::uint64_t h = Mix(seed);
  h = Mix(h ^ node);
  h = Mix(h ^ static_cast<std::uint64_t>(AttributeIndex(attr) + 1));
  h = Mix(h ^ static_cast<std::uint64_t>(time_bucket));
  return h;
}

// Uniform double in [0, 1) from a hash.
double UnitUniform(std::uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

// CorrelatedFieldModel's shape.  Amplitudes are fractions of each
// attribute's range: the spatial gradient spans kSpatialAmplitude over
// kFieldExtentFeet, the temporal oscillation kTemporalAmplitude with period
// kTemporalPeriodMs (~17.5 minutes), and per-sample noise kNoiseAmplitude.
constexpr double kSpatialAmplitude = 0.5;
constexpr double kTemporalAmplitude = 0.2;
constexpr SimDuration kTemporalPeriodMs = 1 << 20;
constexpr double kNoiseAmplitude = 0.05;
constexpr double kFieldExtentFeet = 200.0;

double ClampToRange(double v, const Interval& range) {
  if (v < range.lo()) return range.lo();
  if (v > range.hi()) return range.hi();
  return v;
}

}  // namespace

UniformFieldModel::UniformFieldModel(std::uint64_t seed,
                                     SimDuration resample_period)
    : seed_(seed), resample_period_(resample_period) {
  CheckArg(resample_period > 0,
           "UniformFieldModel: resample_period must be positive");
}

double UniformFieldModel::Sample(NodeId node, const Position& pos,
                                 Attribute attr, SimTime time) const {
  if (attr == Attribute::kNodeId) return static_cast<double>(node);
  if (attr == Attribute::kX) return pos.x;
  if (attr == Attribute::kY) return pos.y;
  const Interval range = AttributeRange(attr);
  const std::int64_t bucket = time / resample_period_;
  const double u = UnitUniform(HashKey(seed_, node, attr, bucket));
  return range.lo() + u * range.Length();
}

CorrelatedFieldModel::CorrelatedFieldModel(std::uint64_t seed) : seed_(seed) {
  // Gradient direction is fixed per (seed, attr) so different attributes are
  // decorrelated but each is spatially smooth.  The constant attributes
  // are not sampled from the field.
  for (Attribute attr : kSensedAttributes) {
    const double unit = UnitUniform(HashKey(seed_, 0, attr, -1));
    const double angle = unit * 2.0 * std::numbers::pi;
    Gradient& gradient = gradients_[AttributeIndex(attr)];
    gradient.cos_angle = std::cos(angle);
    gradient.sin_angle = std::sin(angle);
    gradient.phase_offset = unit * 6.0;
  }
}

double CorrelatedFieldModel::Sample(NodeId node, const Position& pos,
                                    Attribute attr, SimTime time) const {
  if (attr == Attribute::kNodeId) return static_cast<double>(node);
  if (attr == Attribute::kX) return pos.x;
  if (attr == Attribute::kY) return pos.y;
  const Interval range = AttributeRange(attr);
  const double span = range.Length();

  const Gradient& gradient = gradients_[AttributeIndex(attr)];
  const double along =
      (pos.x * gradient.cos_angle + pos.y * gradient.sin_angle) /
      kFieldExtentFeet;
  const double spatial =
      kSpatialAmplitude * span * 0.5 * (1.0 + std::sin(along * 2.0));

  const double phase = 2.0 * std::numbers::pi * static_cast<double>(time) /
                       static_cast<double>(kTemporalPeriodMs);
  const double temporal = kTemporalAmplitude * span * 0.5 *
                          (1.0 + std::sin(phase + gradient.phase_offset));

  const std::int64_t bucket = time / kMinEpochDurationMs;
  const double noise = kNoiseAmplitude * span *
                       (UnitUniform(HashKey(seed_, node, attr, bucket)) - 0.5);

  const double base = range.lo() +
                      0.15 * span;  // keep away from the floor of the range
  return ClampToRange(base + spatial + temporal + noise, range);
}

HotspotFieldModel::HotspotFieldModel(std::uint64_t seed, Params params)
    : base_(seed), params_(params) {
  CheckArg(params.hotspot_radius_feet > 0,
           "HotspotFieldModel: hotspot_radius_feet must be positive");
  CheckArg(params.orbit_period > 0,
           "HotspotFieldModel: orbit_period must be positive");
}

double HotspotFieldModel::Sample(NodeId node, const Position& pos,
                                 Attribute attr, SimTime time) const {
  const double background = base_.Sample(node, pos, attr, time);
  if (IsConstantAttribute(attr)) return background;

  const double phase = 2.0 * std::numbers::pi * static_cast<double>(time) /
                       static_cast<double>(params_.orbit_period);
  const Position hotspot{
      params_.center.x + params_.orbit_radius_feet * std::cos(phase),
      params_.center.y + params_.orbit_radius_feet * std::sin(phase)};
  const double d = Distance(pos, hotspot);
  if (d >= params_.hotspot_radius_feet) return background;

  const Interval range = AttributeRange(attr);
  const double boost = params_.intensity * range.Length() *
                       (1.0 - d / params_.hotspot_radius_feet);
  return ClampToRange(background + boost, range);
}

}  // namespace ttmqo
