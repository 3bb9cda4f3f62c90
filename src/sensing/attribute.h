// The sensor attribute catalog.
//
// TinyDB exposes each mote's sensors as columns of a virtual table
// `sensors`; queries project attributes and filter on range predicates.
// The paper's experiments use `nodeid`, `light` and `temp` (Section 4.3);
// we additionally model `humidity` and `voltage` for richer workloads.
#pragma once

#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <ranges>
#include <string>
#include <string_view>

#include "util/interval.h"

namespace ttmqo {

/// A sensor attribute (column of the virtual `sensors` table).
/// `nodeid`, `xpos` and `ypos` are *constant* attributes — known at
/// deployment time — so predicates over them describe node-id-based and
/// region-based queries, which the Semantic Routing Tree can prune
/// (Section 3.2.2).
enum class Attribute : std::uint8_t {
  kNodeId = 0,
  kLight = 1,
  kTemp = 2,
  kHumidity = 3,
  kVoltage = 4,
  kX = 5,
  kY = 6,
};

/// Number of distinct attributes in the catalog.
inline constexpr std::size_t kNumAttributes = 7;

/// All attributes, in enum order.
inline constexpr std::array<Attribute, kNumAttributes> kAllAttributes = {
    Attribute::kNodeId, Attribute::kLight, Attribute::kTemp,
    Attribute::kHumidity, Attribute::kVoltage, Attribute::kX, Attribute::kY};

/// The attributes a query may sense (everything except the constant
/// columns, which cost nothing to acquire).
inline constexpr std::array<Attribute, 4> kSensedAttributes = {
    Attribute::kLight, Attribute::kTemp, Attribute::kHumidity,
    Attribute::kVoltage};

/// True for deployment-time-constant columns (`nodeid`, `xpos`, `ypos`).
constexpr bool IsConstantAttribute(Attribute attr) {
  return attr == Attribute::kNodeId || attr == Attribute::kX ||
         attr == Attribute::kY;
}

/// Lower-case SQL name of an attribute ("light", "temp", ...).
std::string_view AttributeName(Attribute attr);

/// Parses an attribute name (case-insensitive); nullopt when unknown.
std::optional<Attribute> ParseAttribute(std::string_view name);

/// The physical value range of an attribute.  Selectivity estimation under
/// the uniform assumption divides predicate width by this range's length
/// (the `L` in the paper's worked example, Section 3.1.3).
Interval AttributeRange(Attribute attr);

/// Payload bytes one attribute value occupies in a result message.  TinyDB
/// readings are 16-bit ADC values.
std::size_t AttributeSizeBytes(Attribute attr);

/// Stable index of an attribute for array-based lookups.
constexpr std::size_t AttributeIndex(Attribute attr) {
  return static_cast<std::size_t>(attr);
}

/// A set of attributes held as a bitmask (bit `AttributeIndex(a)` for
/// each member) and iterated in ascending attribute order, like a sorted
/// unique list.  It needs no storage beyond one byte.
class AttributeSet {
 public:
  /// Forward iterator over the members, ascending.
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Attribute;
    using difference_type = std::ptrdiff_t;
    using pointer = const Attribute*;
    using reference = Attribute;

    constexpr Iterator() = default;
    constexpr Attribute operator*() const {
      return static_cast<Attribute>(std::countr_zero(rest_));
    }
    constexpr Iterator& operator++() {
      rest_ &= static_cast<std::uint8_t>(rest_ - 1);
      return *this;
    }
    constexpr Iterator operator++(int) {
      Iterator before = *this;
      ++*this;
      return before;
    }
    constexpr bool operator==(const Iterator&) const = default;

   private:
    friend class AttributeSet;
    constexpr explicit Iterator(std::uint8_t rest) : rest_(rest) {}
    std::uint8_t rest_ = 0;  // members not yet visited
  };

  constexpr AttributeSet() = default;
  /// The attributes of `attrs`; a repeated one counts once.
  template <std::ranges::input_range Range>
    requires std::same_as<std::ranges::range_value_t<Range>, Attribute>
  constexpr explicit AttributeSet(const Range& attrs) {
    for (Attribute attr : attrs) Insert(attr);
  }

  /// Adds `attr` (a no-op when it is already a member).
  constexpr void Insert(Attribute attr) {
    mask_ |= static_cast<std::uint8_t>(1u << AttributeIndex(attr));
  }
  /// Adds every member of `other`.
  constexpr AttributeSet& operator|=(AttributeSet other) {
    mask_ |= other.mask_;
    return *this;
  }
  /// The members as bits: bit i stands for the attribute of index i.
  constexpr std::uint32_t mask() const { return mask_; }

  constexpr Iterator begin() const { return Iterator(mask_); }
  constexpr Iterator end() const { return Iterator(); }

 private:
  static_assert(kNumAttributes <= 8, "the mask holds one bit per attribute");
  std::uint8_t mask_ = 0;
};

}  // namespace ttmqo
