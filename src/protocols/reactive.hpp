// The reactive-routing core shared by DYMO and AODV (and, through DYMO, the
// zone hybrid and the multipath variant). NetLink reports NO_ROUTE for a
// buffered packet; the protocol floods an RREQ, retried with binary
// exponential backoff; a learned route is installed and announced with
// ROUTE_FOUND, so NetLink re-injects the buffer; ROUTE_UPDATE (data-plane
// use) extends its lifetime; a broken link (SEND_ROUTE_ERR, NHOOD_CHANGE
// down) invalidates the routes through it and reports them in a RERR.
//
// A protocol contributes its S element (a ReactiveTable over its route
// record) and a ReactiveProtocol binding: its name, lifetimes, and how it
// emits an RREQ and builds a RERR. Message processing, route records,
// duplicate caches and state codecs stay with each protocol.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/ifaces.hpp"
#include "core/manet_protocol.hpp"
#include "core/soft_state.hpp"
#include "core/state_codec.hpp"
#include "net/address.hpp"
#include "opencom/component.hpp"
#include "packetbb/packetbb.hpp"
#include "util/time.hpp"

namespace mk::proto {

/// Pending route discoveries: one entry per destination with an RREQ in
/// flight, retried with binary exponential backoff up to the protocol's
/// try limit. The retry deadlines themselves are soft-state entries (the
/// protocol's *.pending set); this table only counts tries and doubles the
/// wait.
class PendingDiscoveries {
 public:
  explicit PendingDiscoveries(std::uint8_t max_tries) : max_tries_(max_tries) {}

  bool has(net::Addr dest) const { return entries_.count(dest) > 0; }

  /// Records the first try; its retry is due `wait` from now.
  void start(net::Addr dest, Duration wait) { entries_[dest] = {1, wait}; }

  /// Advances one discovery whose retry deadline lapsed: bumps the try
  /// counter, doubles the backoff and returns the new retry deadline.
  /// Returns nullopt if the discovery is absent or just gave up (dropped).
  std::optional<TimePoint> retry(net::Addr dest, TimePoint now) {
    auto it = entries_.find(dest);
    if (it == entries_.end()) return std::nullopt;
    Entry& e = it->second;
    if (e.tries >= max_tries_) {
      entries_.erase(it);
      return std::nullopt;
    }
    ++e.tries;
    e.backoff = e.backoff * 2;
    return now + e.backoff;
  }

  void finish(net::Addr dest) { entries_.erase(dest); }
  void clear() { entries_.clear(); }
  std::size_t size() const { return entries_.size(); }
  std::uint8_t max_tries() const { return max_tries_; }

  /// Destinations with discoveries in flight (expiry re-seeding).
  std::vector<net::Addr> dests() const {
    std::vector<net::Addr> out;
    out.reserve(entries_.size());
    for (const auto& [dest, _] : entries_) out.push_back(dest);
    return out;
  }

 private:
  struct Entry {
    std::uint8_t tries;
    Duration backoff;
  };
  std::uint8_t max_tries_;
  std::map<net::Addr, Entry> entries_;
};

/// Soft-state set ids every reactive composition defines first, in this
/// order; protocol-specific sets follow.
namespace reactive_sets {
inline constexpr core::SoftExpiry::SetId kRoute = 0;
inline constexpr core::SoftExpiry::SetId kPending = 1;
}  // namespace reactive_sets

/// (destination, sequence number) pairs a RERR reports unreachable.
using Unreachable = std::vector<std::pair<net::Addr, std::uint16_t>>;

/// One route as the shared handlers see it.
struct RouteView {
  net::Addr next_hop = net::kNoAddr;
  std::uint8_t hops = 0;
  bool valid = false;  // usable for forwarding
  TimePoint expires{};
};

/// Base of the reactive protocols' S elements: own sequence number, pending
/// discoveries, and the route queries the shared handlers make.
class ReactiveState : public oc::Component,
                      public core::IState,
                      public core::IStateCodec {
 public:
  std::uint16_t own_seq() const { return own_seq_; }
  std::uint16_t bump_seq() { return ++own_seq_; }
  PendingDiscoveries& pending() { return pending_; }

  /// The entry for `dest`, valid or not.
  virtual std::optional<RouteView> find_route(net::Addr dest) const = 0;
  /// Visits every entry in address order.
  virtual void for_each_route(
      const std::function<void(net::Addr, const RouteView&)>& fn) const = 0;
  /// Data-plane use: a valid route's deadline moves to now + lifetime.
  /// Returns the entry's deadline, valid or not; nullopt if there is none.
  virtual std::optional<TimePoint> extend_lifetime(net::Addr dest,
                                                   TimePoint now,
                                                   Duration lifetime) = 0;
  /// Invalidates one destination; returns the seq to report if a valid
  /// route existed.
  virtual std::optional<std::uint16_t> invalidate(net::Addr dest) = 0;
  /// Invalidates every valid route forwarding through `next_hop`.
  virtual Unreachable invalidate_via(net::Addr next_hop) = 0;

 protected:
  explicit ReactiveState(std::uint8_t max_tries);
  /// Cold start: sequence number 1, no discovery in flight.
  void reset_reactive();

  std::uint16_t own_seq_ = 1;
  PendingDiscoveries pending_;
};

/// What a learned route did to the table: whether it changed the entry
/// (so the kernel route and ROUTE_FOUND follow), and the entry's deadline
/// afterwards, for the route set's soft-state entry. Tests read it as the
/// `changed` flag.
struct RouteUpdate {
  bool changed = false;
  TimePoint expires{};
  explicit operator bool() const { return changed; }
};

/// A ReactiveState over a route record (DymoRoute, AodvRoute) that has
/// `valid`, `expires`, `RouteView view() const`, and `std::uint16_t
/// invalidate()` marking it invalid and returning the seq a RERR reports.
/// Routes live in one address-sorted vector: a lookup is a binary search
/// over contiguous entries, and iteration (codecs, RERR contents, HELLO
/// piggybacking) keeps address order.
template <typename Route>
class ReactiveTable : public ReactiveState {
 public:
  using Entry = std::pair<net::Addr, Route>;

  std::optional<Route> route_to(net::Addr dest) const {
    auto it = position(routes_, dest);
    if (it == routes_.end() || it->first != dest) return std::nullopt;
    return it->second;
  }
  Route* mutable_route(net::Addr dest) {
    auto it = position(routes_, dest);
    return it != routes_.end() && it->first == dest ? &it->second : nullptr;
  }
  std::size_t route_count() const { return routes_.size(); }
  /// Every entry, in address order.
  const std::vector<Entry>& all_routes() const { return routes_; }

  std::optional<RouteView> find_route(net::Addr dest) const override {
    auto it = position(routes_, dest);
    if (it == routes_.end() || it->first != dest) return std::nullopt;
    return it->second.view();
  }
  void for_each_route(const std::function<void(net::Addr, const RouteView&)>&
                          fn) const override {
    for (const auto& [dest, r] : routes_) fn(dest, r.view());
  }
  std::optional<TimePoint> extend_lifetime(net::Addr dest, TimePoint now,
                                           Duration lifetime) override {
    Route* r = mutable_route(dest);
    if (r == nullptr) return std::nullopt;
    if (r->valid) r->expires = now + lifetime;
    return r->expires;
  }
  std::optional<std::uint16_t> invalidate(net::Addr dest) override {
    Route* r = mutable_route(dest);
    if (r == nullptr || !r->valid) return std::nullopt;
    return r->invalidate();
  }
  Unreachable invalidate_via(net::Addr next_hop) override {
    Unreachable out;
    for (auto& [dest, r] : routes_) {
      const RouteView v = r.view();
      if (v.valid && v.next_hop == next_hop) {
        out.emplace_back(dest, r.invalidate());
      }
    }
    return out;
  }

 protected:
  using ReactiveState::ReactiveState;

  /// First entry of `routes` whose address is not below `dest`.
  template <typename Routes>
  static auto position(Routes& routes, net::Addr dest) {
    return std::lower_bound(
        routes.begin(), routes.end(), dest,
        [](const Entry& e, net::Addr d) { return e.first < d; });
  }
  /// The entry for `dest`, default-constructed and inserted in address
  /// order if absent.
  Route& entry_for(net::Addr dest) {
    auto it = position(routes_, dest);
    if (it == routes_.end() || it->first != dest) {
      it = routes_.emplace(it, dest, Route{});
    }
    return it->second;
  }
  /// Removes `dest`; returns true if it was present.
  bool erase_route(net::Addr dest) {
    auto it = position(routes_, dest);
    if (it == routes_.end() || it->first != dest) return false;
    routes_.erase(it);
    return true;
  }

  std::vector<Entry> routes_;  // sorted by destination address
};

/// How one reactive protocol plugs into the shared core.
struct ReactiveProtocol {
  std::string name;  // "dymo", "aodv": soft-set, counter and type prefix
  Duration route_lifetime{};  // from data-plane use; the route set's hold
  Duration rreq_wait{};       // backoff before a discovery's first retry
  std::function<void(core::ProtocolContext&, net::Addr target)> send_rreq;
  /// Builds the RERR reporting `unreachable`.
  std::function<ev::Event(core::ProtocolContext&, const Unreachable&)>
      build_rerr;
};

/// ROUTE_FOUND for `dest`: NetLink re-injects what it buffered.
void emit_route_found(core::ProtocolContext& ctx, net::Addr dest);

/// Ends the discovery for `dest`, if one is in flight.
void finish_discovery(core::ProtocolContext& ctx, net::Addr dest);

/// The route-learned step, after the protocol's own update_route: if it
/// changed the table, install the kernel route, finish the discovery and
/// emit ROUTE_FOUND; then touch the route set with the entry's deadline
/// either way (a same-info refresh extends the lifetime without reporting a
/// change).
void route_learned(core::ProtocolContext& ctx, net::Addr dest,
                   net::Addr next_hop, std::uint8_t hops, RouteUpdate update);

/// RERR receipt: invalidates each reported destination whose route runs
/// through the sender `from`, withdraws its kernel route, and returns what
/// to propagate.
Unreachable invalidate_reported(core::ProtocolContext& ctx,
                                const pbb::Message& rerr, net::Addr from);

/// Starts a discovery for `target` unless one is in flight; returns true if
/// it sent the first RREQ.
bool start_discovery(core::ProtocolContext& ctx, const ReactiveProtocol& proto,
                     net::Addr target);

/// Starts a discovery on a deployed reactive CF directly (tests, examples),
/// with its NoRouteHandler's binding.
void discover(core::ManetProtocolCf& cf, net::Addr target);

/// Defines the "<name>.route" set, first; `on_lapse` is the protocol's loss
/// callback.
core::SoftExpiry::SetId define_route_set(core::SoftExpiry& soft,
                                         const ReactiveProtocol& proto,
                                         core::SoftExpiry::LossFn on_lapse);

/// Defines the "<name>.pending" set, second: a lapsed retry deadline re-sends
/// the RREQ with a doubled backoff until the try limit, then gives up.
core::SoftExpiry::SetId define_pending_set(core::SoftExpiry& soft,
                                           const ReactiveProtocol& proto);

/// NO_ROUTE from NetLink: start (or join) a route discovery. The zone-hybrid
/// protocol overrides try_local_knowledge() to satisfy in-zone destinations
/// proactively, without flooding.
class NoRouteHandler : public core::EventHandler {
 public:
  explicit NoRouteHandler(const ReactiveProtocol& proto);
  void handle(const ev::Event& event, core::ProtocolContext& ctx) override;
  const ReactiveProtocol& protocol() const { return proto_; }

 protected:
  /// Returns true if a route to `dest` was produced from local knowledge
  /// (and ROUTE_FOUND emitted); false to fall through to discovery. A
  /// purely reactive protocol has no proactive knowledge.
  virtual bool try_local_knowledge(net::Addr, core::ProtocolContext&) {
    return false;
  }

  ReactiveProtocol proto_;
  std::string discoveries_;  // counter name
};

/// ROUTE_UPDATE from NetLink: data-plane use extends route lifetimes.
class RouteUpdateHandler final : public core::EventHandler {
 public:
  explicit RouteUpdateHandler(const ReactiveProtocol& proto);
  void handle(const ev::Event& event, core::ProtocolContext& ctx) override;

 private:
  Duration lifetime_;
};

/// SEND_ROUTE_ERR and NHOOD_CHANGE(down): invalidates the routes through the
/// broken hop and emits the protocol's RERR for them. The multipath variant
/// overrides fail_via() to switch to alternate paths first.
class LinkBreakHandler : public core::EventHandler {
 public:
  LinkBreakHandler(const ReactiveProtocol& proto, std::string name);
  void handle(const ev::Event& event, core::ProtocolContext& ctx) override;

 protected:
  /// Invalidates paths through `hop` and withdraws their kernel routes;
  /// returns the pairs that became unreachable.
  virtual Unreachable fail_via(net::Addr hop, core::ProtocolContext& ctx);

  ReactiveProtocol proto_;
  std::string rerr_out_;  // counter name
  const ev::EventTypeId send_route_err_ =
      ev::etype(ev::types::SEND_ROUTE_ERR);
};

}  // namespace mk::proto
