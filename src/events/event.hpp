// MANETKit event ontology (§4.2).
//
// Communication between CFS units is carried out using events drawn from an
// extensible polymorphic ontology: event types are interned strings (dense
// ids), and an Event optionally carries a PacketBB message — the paper bases
// its event structure on the PacketBB format — plus a few context values
// (battery level, link quality, the destination a route refers to, ...).
//
// Events are designed to be *cheap to fan out*: the carried PacketBB message
// is held as a shared immutable pointer, so copying an Event to N co-deployed
// protocols shares one message allocation instead of deep-copying the nested
// TLV/address-block structure N times. A component that wants to modify the
// carried message goes through mutable_msg(), which clones lazily
// (copy-on-write) only when the message is actually shared. The context
// values come from a closed, typed key set (IntAttr, RealAttr) held inline —
// one slot per key plus a presence mask — so setting one or copying an Event
// never allocates.
//
// Each CFS unit declares an EventTuple <required-events, provided-events>;
// the Framework Manager derives bindings from these (see core/).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "packetbb/packetbb.hpp"
#include "util/time.hpp"

namespace mk::ev {

using EventTypeId = std::uint32_t;
inline constexpr EventTypeId kInvalidEventType = 0;

/// Global interning registry: name <-> dense id. Thread-safe. Ids are stable
/// for the process lifetime so they can be compared across nodes in one
/// simulation. Reads (lookup/name) take a shared lock so concurrent
/// dispatchers never serialize on the registry; intern writes are rare
/// (deployment time only).
class EventTypeRegistry {
 public:
  static EventTypeRegistry& instance();

  /// Returns the id for `name`, interning it on first use.
  EventTypeId intern(std::string_view name);

  /// Id for an already-interned name, or kInvalidEventType.
  EventTypeId lookup(std::string_view name) const;

  /// Name for an id ("?" if unknown).
  std::string name(EventTypeId id) const;

  /// FNV-1a hash of the name behind `id`: a canonical identifier that is
  /// independent of interning order, so trace digests built from it compare
  /// across runs (and processes) that interned types in different orders.
  /// Cached at intern time — the lookup is a shared-lock indexed load.
  std::uint64_t stable_hash(EventTypeId id) const;

  std::size_t size() const;

 private:
  EventTypeRegistry() = default;
  mutable std::shared_mutex mutex_;
  std::vector<std::pair<std::string, EventTypeId>> by_name_;  // sorted by name
  std::vector<std::string> by_id_{"<invalid>"};
  std::vector<std::uint64_t> by_id_hash_{0};
};

/// Convenience: intern at call site.
EventTypeId etype(std::string_view name);

/// The well-known event names used by the built-in CFs and protocols.
/// (Protocols are free to define further types; these are just the shared
/// vocabulary from the paper's case studies.)
namespace types {
// Neighbour detection / MPR
inline const std::string HELLO_IN = "HELLO_IN";
inline const std::string HELLO_OUT = "HELLO_OUT";
inline const std::string NHOOD_CHANGE = "NHOOD_CHANGE";
inline const std::string MPR_CHANGE = "MPR_CHANGE";
// OLSR
inline const std::string TC_IN = "TC_IN";
inline const std::string TC_OUT = "TC_OUT";
// DYMO
inline const std::string RM_IN = "RM_IN";      // routing message (RREQ/RREP)
inline const std::string RM_OUT = "RM_OUT";
inline const std::string RERR_IN = "RERR_IN";
inline const std::string RERR_OUT = "RERR_OUT";
// AODV
inline const std::string AODV_IN = "AODV_IN";
inline const std::string AODV_OUT = "AODV_OUT";
// NetLink (kernel packet-filter) events
inline const std::string NO_ROUTE = "NO_ROUTE";
inline const std::string ROUTE_UPDATE = "ROUTE_UPDATE";
inline const std::string SEND_ROUTE_ERR = "SEND_ROUTE_ERR";
inline const std::string ROUTE_FOUND = "ROUTE_FOUND";
// Context events
inline const std::string POWER_STATUS = "POWER_STATUS";
inline const std::string LINK_QUALITY = "LINK_QUALITY";
}  // namespace types

/// Integer-valued context attributes. The key fixes the value type.
enum class IntAttr : std::uint8_t {
  unicast_to,  // *_OUT: unicast link-level destination; absent = broadcast
  dest,        // destination a route refers to (NO_ROUTE, ROUTE_FOUND, ...)
  src,         // source address of the data packet that raised the event
  next_hop,    // SEND_ROUTE_ERR: the broken next hop
  neighbor,    // NHOOD_CHANGE, LINK_QUALITY: the neighbour affected
  up,          // NHOOD_CHANGE: 1 if the link is now up, 0 if it broke
};
inline constexpr std::size_t kIntAttrCount = 6;

/// Real-valued context attributes, in [0,1].
enum class RealAttr : std::uint8_t {
  battery,  // POWER_STATUS: battery level
  quality,  // LINK_QUALITY: link quality estimate
};
inline constexpr std::size_t kRealAttrCount = 2;

/// Shared immutable PacketBB message. Always created via
/// std::make_shared<pbb::Message> (Event::set_msg does this); the const in
/// the type expresses the sharing contract, not storage constness — COW
/// mutation through Event::mutable_msg() is well-defined.
using MsgPtr = std::shared_ptr<const pbb::Message>;

/// A unit of communication between CFS units.
class Event {
 public:
  Event() = default;
  explicit Event(EventTypeId type) : type_(type) {}
  explicit Event(std::string_view type_name) : type_(etype(type_name)) {}

  EventTypeId type() const { return type_; }
  std::string type_name() const;

  /// Previous hop the carried message arrived from (for *_IN events).
  pbb::Addr from = 0;
  /// Local address the event was raised at (useful in simulation harnesses).
  pbb::Addr local = 0;
  /// Time the event was raised.
  TimePoint raised_at{};

  // -- carried PacketBB message (shared immutable, copy-on-write) -------------
  bool has_msg() const { return msg_ != nullptr; }
  /// Read-only view of the carried message (nullptr when absent).
  const pbb::Message* msg() const { return msg_.get(); }
  /// The shared handle itself, for zero-copy hand-off to another event.
  const MsgPtr& shared_msg() const { return msg_; }
  /// Attaches an owned copy of `m`; returns a mutable reference to it so a
  /// builder can keep editing without triggering a COW clone.
  pbb::Message& set_msg(pbb::Message m);
  /// Attaches an already-shared message without copying.
  void set_msg(MsgPtr m) { msg_ = std::move(m); }
  /// Attaches a recycled pool message (pbb::acquire_message) and returns a
  /// mutable reference for in-place building. The message arrives STALE WARM:
  /// its nested vectors still hold the previous tenant's size and capacity,
  /// so the caller must overwrite every field (the *_into builder
  /// discipline) before the event is emitted.
  pbb::Message& acquire_msg();
  /// Copy-on-write access: clones the message only if it is shared with
  /// other events (or creates an empty one if absent).
  pbb::Message& mutable_msg();

  // -- context attributes (inline: setting and copying never allocate) ------
  void set_attr(IntAttr key, std::int64_t v) {
    ints_[index(key)] = v;
    present_ |= bit(key);
  }
  void set_attr(RealAttr key, double v) {
    reals_[index(key)] = v;
    present_ |= bit(key);
  }
  /// The value set for `key`, or `fallback` when the event carries none.
  std::int64_t attr(IntAttr key, std::int64_t fallback = 0) const {
    return (present_ & bit(key)) != 0 ? ints_[index(key)] : fallback;
  }
  double attr(RealAttr key, double fallback = 0.0) const {
    return (present_ & bit(key)) != 0 ? reals_[index(key)] : fallback;
  }

 private:
  template <typename Key>
  static constexpr std::size_t index(Key key) {
    return static_cast<std::size_t>(key);
  }
  static constexpr unsigned bit(IntAttr key) { return 1u << index(key); }
  static constexpr unsigned bit(RealAttr key) {
    return 1u << (kIntAttrCount + index(key));
  }

  EventTypeId type_ = kInvalidEventType;
  std::uint8_t present_ = 0;  // one bit per IntAttr, then one per RealAttr
  static_assert(kIntAttrCount + kRealAttrCount <= 8);
  MsgPtr msg_;
  std::array<std::int64_t, kIntAttrCount> ints_{};
  std::array<double, kRealAttrCount> reals_{};
};

/// The declarative composition contract of a CFS unit (§4.2): the set of
/// event types it wants to receive, the set it can generate, and the subset
/// of required events it wants *exclusively* (other requirers are then
/// skipped — footnote 2 of the paper). Each set is a sorted, duplicate-free
/// vector of ids.
struct EventTuple {
  std::vector<EventTypeId> required;
  std::vector<EventTypeId> provided;
  std::vector<EventTypeId> exclusive;

  bool requires_type(EventTypeId t) const { return has(required, t); }
  bool provides(EventTypeId t) const { return has(provided, t); }
  bool is_exclusive(EventTypeId t) const { return has(exclusive, t); }

  /// The ids of `names`, sorted and duplicate-free.
  static std::vector<EventTypeId> ids(const std::vector<std::string>& names);
  /// Adds `t` to the sorted set `ids` unless it is already there.
  static void add(std::vector<EventTypeId>& ids, EventTypeId t);
  /// Whether the sorted set `ids` holds `t`.
  static bool has(const std::vector<EventTypeId>& ids, EventTypeId t) {
    return std::binary_search(ids.begin(), ids.end(), t);
  }
};

}  // namespace mk::ev
