// Synthetic physical-field models.
//
// The paper's motes sample a real environment; we substitute deterministic
// synthetic fields.  A field model is a *pure function* of (node, position,
// attribute, time): sampling the same point twice yields the same value.
// This matters for correctness testing — under multi-query optimization a
// single shared acquisition replaces several per-query acquisitions, and the
// answer streams must stay identical (DESIGN.md, decision 7).
//
// Three models are provided:
//  * `UniformFieldModel` — i.i.d. uniform per (node, attr, epoch); matches
//    the uniform-distribution assumption of the paper's cost analysis
//    (Section 3.1.3).
//  * `CorrelatedFieldModel` — spatially smooth gradient plus temporal
//    oscillation plus small noise; matches the spatio-temporal correlation
//    the in-network tier exploits (Section 3.2.2, Discussion).
//  * `HotspotFieldModel` — a correlated field with a moving circular hotspot;
//    used by the example applications.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "sensing/attribute.h"
#include "sensing/reading.h"
#include "util/geometry.h"
#include "util/ids.h"
#include "util/time.h"

namespace ttmqo {

/// Interface of a deterministic synthetic field.
class FieldModel {
 public:
  virtual ~FieldModel() = default;

  /// The value of `attr` at node `node` located at `pos`, at instant `time`.
  /// Pure: equal arguments always yield equal results.  Values lie within
  /// `AttributeRange(attr)`.
  virtual double Sample(NodeId node, const Position& pos, Attribute attr,
                        SimTime time) const = 0;

  /// Samples every attribute in `attrs` into a `Reading`.
  template <typename AttrRange>
  Reading SampleReading(NodeId node, const Position& pos,
                        const AttrRange& attrs, SimTime time) const {
    Reading reading(node, time);
    for (Attribute attr : attrs) {
      reading.Set(attr, Sample(node, pos, attr, time));
    }
    return reading;
  }
};

/// I.i.d. uniform readings, re-drawn every `resample_period` ms.
class UniformFieldModel final : public FieldModel {
 public:
  /// `seed` fixes the field; `resample_period` quantizes time so that all
  /// samples within one base epoch observe the same value.
  explicit UniformFieldModel(std::uint64_t seed,
                             SimDuration resample_period = kMinEpochDurationMs);

  double Sample(NodeId node, const Position& pos, Attribute attr,
                SimTime time) const override;

 private:
  std::uint64_t seed_;
  SimDuration resample_period_;
};

/// Spatially and temporally correlated field: a planar gradient whose
/// direction drifts slowly with time, plus deterministic per-node noise.
/// Its shape (amplitudes, period, extent) is fixed in field_model.cc.
class CorrelatedFieldModel final : public FieldModel {
 public:
  explicit CorrelatedFieldModel(std::uint64_t seed);

  double Sample(NodeId node, const Position& pos, Attribute attr,
                SimTime time) const override;

 private:
  /// What a (seed, attribute) pair fixes: the gradient's direction, as
  /// its cosine and sine, and the temporal oscillation's phase offset.
  /// Derived once per attribute in the constructor.
  struct Gradient {
    double cos_angle = 0.0;
    double sin_angle = 0.0;
    double phase_offset = 0.0;
  };

  std::uint64_t seed_;
  std::array<Gradient, kNumAttributes> gradients_;
};

/// A correlated field overlaid with a circular hotspot that orbits the
/// deployment center; inside the hotspot, values are pushed toward the top
/// of the attribute range.  Used by example applications to create
/// spatially-connected query answer sets.
class HotspotFieldModel final : public FieldModel {
 public:
  struct Params {
    Position center{70.0, 70.0};  ///< Orbit center (feet).
    double orbit_radius_feet = 40.0;
    double hotspot_radius_feet = 45.0;
    SimDuration orbit_period = 1 << 22;  ///< Time of one full orbit.
    /// Fraction of the attribute range added at the hotspot center.
    double intensity = 0.6;
  };

  HotspotFieldModel(std::uint64_t seed, Params params);

  double Sample(NodeId node, const Position& pos, Attribute attr,
                SimTime time) const override;

 private:
  CorrelatedFieldModel base_;
  Params params_;
};

}  // namespace ttmqo
