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
#include <vector>

#include "util/ids.h"

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

/// Concrete type of a payload, fixed at construction.  Receivers dispatch
/// on it with `PayloadAs`: one compare per candidate type, no RTTI walk.
/// Payloads defined outside the engines (test probes) keep `kOther`.
enum class PayloadKind : std::uint8_t {
  kOther = 0,
  // tinydb/payloads.h
  kQueryPropagation,
  kQueryAbort,
  kRow,
  kAgg,
  // core/innet/payloads.h
  kInNetPropagation,
  kSharedRow,
  kSharedAgg,
  kRepairRequest,
  kRepairReply,
  // reliable/arq.h
  kArqData,
  kArqAck,
};

/// Base class of typed message payloads.  Each concrete payload declares
/// `static constexpr PayloadKind kKind` and passes it to this constructor.
class Payload {
 public:
  explicit Payload(PayloadKind kind = PayloadKind::kOther) : kind_(kind) {}
  virtual ~Payload() = default;

  PayloadKind kind() const { return kind_; }

 protected:
  // Concrete payloads copy (a relay forwards a copy); a bare Payload never
  // does, so a copy cannot slice off the concrete part.
  Payload(const Payload&) = default;
  Payload(Payload&&) = default;
  Payload& operator=(const Payload&) = default;
  Payload& operator=(Payload&&) = default;

 private:
  PayloadKind kind_;
};

/// `payload` as a `T` when its kind is `T::kKind`, nullptr otherwise
/// (including a null payload).
template <typename T>
const T* PayloadAs(const Payload* payload) {
  static_assert(T::kKind != PayloadKind::kOther,
                "only kinded payloads can be dispatched on");
  return payload != nullptr && payload->kind() == T::kKind
             ? static_cast<const T*>(payload)
             : nullptr;
}

/// How a transmission addresses its receivers.
enum class AddressMode : std::uint8_t {
  kBroadcast, ///< every neighbor in radio range processes the message
  kUnicast,   ///< exactly one addressed neighbor
  kMulticast, ///< several addressed neighbors, one transmission
};

/// One radio transmission.
struct Message {
  MessageClass cls = MessageClass::kResult;
  AddressMode mode = AddressMode::kBroadcast;
  NodeId sender = kBaseStationId;
  /// Addressed receivers; empty for broadcast.
  std::vector<NodeId> destinations;
  /// Serialized payload size in bytes (excluding the fixed radio header).
  std::size_t payload_bytes = 0;
  /// Typed contents; shared because multicast delivers one payload to many.
  std::shared_ptr<const Payload> payload;
};

}  // namespace ttmqo
