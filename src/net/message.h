// Radio messages.
//
// The paper's metric counts four message classes separately: query result
// transmissions, query propagation/abort messages, periodic network
// maintenance messages, and retransmissions due to failures (Section 4.1).
// A `Message` carries a typed payload (owned polymorphically) plus the
// serialized payload size used for transmission-time accounting.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>

#include "util/ids.h"
#include "util/inline_list.h"

namespace ttmqo {

/// Accounting class of a radio message.
enum class MessageClass : std::uint8_t {
  kResult = 0,           ///< query result / partial aggregate transmissions
  kQueryPropagation = 1, ///< query dissemination flood
  kQueryAbort = 2,       ///< query termination flood
  kMaintenance = 3,      ///< periodic neighbor/beacon traffic
  kControl = 4,          ///< reliability control: acks, gap-repair requests
};

/// Number of message classes.
inline constexpr std::size_t kNumMessageClasses = 5;

/// Display name of a message class.
std::string_view MessageClassName(MessageClass cls);

/// Base class of typed message payloads.  Every payload carries the tag of
/// its concrete type, fixed at construction; receivers dispatch on it with
/// `PayloadAs`: one pointer compare per candidate type, no RTTI walk.  A
/// concrete payload `T` derives from `TaggedPayload<T>`, the only way to
/// construct a `Payload`.
class Payload {
 public:
  virtual ~Payload() = default;

 protected:
  // Concrete payloads copy (a relay forwards a copy); a bare Payload never
  // does, so a copy cannot slice off the concrete part.
  Payload(const Payload&) = default;
  Payload(Payload&&) = default;
  Payload& operator=(const Payload&) = default;
  Payload& operator=(Payload&&) = default;

 private:
  template <typename T>
  friend class TaggedPayload;
  template <typename T>
  friend const T* PayloadAs(const Payload* payload);

  explicit Payload(const void* tag) : tag_(tag) {}

  const void* tag_;
};

/// CRTP base of a concrete payload `T`: its tag is the address of `kTag`,
/// an object of its own for every `T`, so two payload types can never
/// share a tag.  Only `T` can construct it.
template <typename T>
class TaggedPayload : public Payload {
 public:
  static constexpr char kTag = 0;

 private:
  friend T;
  TaggedPayload() : Payload(&kTag) {}
};

/// `payload` as a `T` when it was constructed as a `T`, nullptr otherwise
/// (including a null payload).
template <typename T>
const T* PayloadAs(const Payload* payload) {
  static_assert(std::is_base_of_v<TaggedPayload<T>, T>,
                "a dispatchable payload T derives from TaggedPayload<T>");
  return payload != nullptr && payload->tag_ == &TaggedPayload<T>::kTag
             ? static_cast<const T*>(payload)
             : nullptr;
}

/// How a transmission addresses its receivers.
enum class AddressMode : std::uint8_t {
  kBroadcast, ///< every neighbor in radio range processes the message
  kUnicast,   ///< exactly one addressed neighbor
  kMulticast, ///< several addressed neighbors, one transmission
};

/// The addressed receivers of one transmission.  Result traffic addresses
/// one or two neighbors, so four fit inline and a message allocates no
/// list of its own; wider multicasts spill to the heap.
using NodeList = InlineList<NodeId, 4>;

/// One radio transmission.
struct Message {
  MessageClass cls = MessageClass::kResult;
  AddressMode mode = AddressMode::kBroadcast;
  NodeId sender = kBaseStationId;
  /// Addressed receivers; empty for broadcast.
  NodeList destinations;
  /// Serialized payload size in bytes (excluding the fixed radio header).
  std::size_t payload_bytes = 0;
  /// Typed contents; shared because multicast delivers one payload to many.
  std::shared_ptr<const Payload> payload;
};

}  // namespace ttmqo
