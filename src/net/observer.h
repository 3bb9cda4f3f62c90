// Radio-level event observation.
//
// `NetworkObserver` is the callback interface for radio events (tracing,
// visualization, debugging).  `ObserverMux` fans every event out to any
// number of registered observers, so a trace writer and a test probe can
// both watch one `Network`.  Radio counts need no observer: the
// `RadioLedger` keeps them, and the run exports them to the metrics
// registry at its end.
#pragma once

#include <vector>

#include "net/message.h"
#include "util/ids.h"
#include "util/time.h"

namespace ttmqo {

/// Observes radio-level events.  All callbacks default to no-ops; implement
/// only what you need.
class NetworkObserver {
 public:
  virtual ~NetworkObserver() = default;

  /// A transmission attempt began (including retransmissions).
  virtual void OnTransmit(SimTime /*time*/, const Message& /*msg*/,
                          double /*duration_ms*/, bool /*retransmission*/) {}
  /// A message was abandoned after exhausting its retries.
  virtual void OnDrop(SimTime /*time*/, const Message& /*msg*/) {}
  /// A node changed power state.
  virtual void OnSleepChange(SimTime /*time*/, NodeId /*node*/,
                             bool /*asleep*/) {}
  /// A node crashed (permanent fault).
  virtual void OnNodeFailed(SimTime /*time*/, NodeId /*node*/) {}
  /// A node entered a transient outage (it will recover).
  virtual void OnNodeDown(SimTime /*time*/, NodeId /*node*/) {}
  /// A node recovered from a transient outage that lasted `down_ms`.
  virtual void OnNodeRecovered(SimTime /*time*/, NodeId /*node*/,
                               SimDuration /*down_ms*/) {}
  /// A delivery to `receiver` was lost on a lossy link (independent of the
  /// contention model; the sender does not retry).
  virtual void OnLinkDrop(SimTime /*time*/, const Message& /*msg*/,
                          NodeId /*receiver*/) {}
};

/// Fans radio events out to every registered observer, in registration
/// order.  Observers are borrowed, never owned, and must outlive their
/// registration.
class ObserverMux final : public NetworkObserver {
 public:
  /// Registers `observer`.  Null pointers and duplicates are ignored.
  void Add(NetworkObserver* observer);

  /// Unregisters `observer`; returns false when it was not registered.
  bool Remove(NetworkObserver* observer);

  /// Number of registered observers.
  std::size_t size() const { return observers_.size(); }

  /// True when no observer is registered (events need not be dispatched).
  bool empty() const { return observers_.empty(); }

  void OnTransmit(SimTime time, const Message& msg, double duration_ms,
                  bool retransmission) override;
  void OnDrop(SimTime time, const Message& msg) override;
  void OnSleepChange(SimTime time, NodeId node, bool asleep) override;
  void OnNodeFailed(SimTime time, NodeId node) override;
  void OnNodeDown(SimTime time, NodeId node) override;
  void OnNodeRecovered(SimTime time, NodeId node, SimDuration down_ms) override;
  void OnLinkDrop(SimTime time, const Message& msg, NodeId receiver) override;

 private:
  std::vector<NetworkObserver*> observers_;
};

}  // namespace ttmqo
