// The DYMO CF (§5.2, Fig. 6): a reactive (on-demand) routing protocol built
// on the Neighbour Detection CF and the System CF's NetLink component.
//
// Event tuple:
//   required = {RM_IN, RERR_IN, NO_ROUTE, ROUTE_UPDATE, SEND_ROUTE_ERR,
//               NHOOD_CHANGE}   (NO_ROUTE exclusively)
//   provided = {RM_OUT, RERR_OUT, ROUTE_FOUND}
//
// Route discovery is driven by NO_ROUTE events from NetLink (a packet had no
// route and was buffered); ROUTE_UPDATE extends lifetimes on data-plane use;
// SEND_ROUTE_ERR / NHOOD_CHANGE trigger invalidation + RERR. On successful
// discovery DYMO emits ROUTE_FOUND, making NetLink re-inject the buffered
// packets.
//
// The RE (routing element) handler and the invalidation handler are exported
// so the multipath variant can subclass/replace them (§5.2).
#pragma once

#include <memory>

#include "core/manet_protocol.hpp"
#include "core/manetkit.hpp"
#include "core/soft_state.hpp"
#include "protocols/dymo/dymo_state.hpp"
#include "protocols/wire.hpp"

namespace mk::proto {

struct DymoParams {
  Duration route_lifetime = sec(5);
  Duration rreq_wait = sec(1);        // initial retry backoff
  Duration duplicate_hold = sec(5);
  std::uint8_t rreq_hop_limit = 10;
  std::uint8_t rerr_hop_limit = 3;
};

/// Soft-state set ids of the DYMO CF (and its ZRP/multipath/gossip
/// derivatives), fixed by definition order in build_dymo_cf.
namespace dymo_sets {
inline constexpr core::SoftExpiry::SetId kRoute = 0;
inline constexpr core::SoftExpiry::SetId kPending = 1;
inline constexpr core::SoftExpiry::SetId kDuplicate = 2;
}  // namespace dymo_sets

/// Packs an RM duplicate-set tuple into a soft-state key.
inline std::uint64_t dymo_dup_key(net::Addr origin, std::uint16_t seq) {
  return (static_cast<std::uint64_t>(origin) << 16) | seq;
}

// -- RM / RERR codecs (shared with tests and the DYMOUM baseline parity) -------
namespace rm {

enum class Kind : std::uint8_t { kRreq = 0, kRrep = 1 };

pbb::Message build_rreq(net::Addr self, std::uint16_t own_seq, net::Addr target,
                        std::uint8_t hop_limit);
pbb::Message build_rrep(net::Addr self, std::uint16_t own_seq,
                        net::Addr rreq_origin, std::uint8_t hop_limit);

/// Appends `self` to the path-accumulation block; call *after* bumping
/// hop_count for this relay.
void append_self(pbb::Message& msg, net::Addr self, std::uint16_t seq);

Kind kind(const pbb::Message& msg);
net::Addr target(const pbb::Message& msg);

pbb::Message build_rerr(net::Addr self, std::uint16_t seq,
                        const std::vector<std::pair<net::Addr, std::uint16_t>>&
                            unreachable,
                        std::uint8_t hop_limit);

}  // namespace rm

/// Core DYMO routing-element logic (RREQ/RREP processing with path
/// accumulation). The multipath variant overrides the duplicate hooks.
class ReHandler : public core::EventHandler {
 public:
  explicit ReHandler(DymoParams params);

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override;

 protected:
  ReHandler(std::string type_name, DymoParams params);

  /// A duplicate RREQ arrived at the *target*; default: discard.
  virtual void on_duplicate_rreq_at_target(const ev::Event& event,
                                           core::ProtocolContext& ctx);
  /// A duplicate RREQ arrived at an *intermediate* node; default: discard.
  virtual void on_duplicate_rreq(const ev::Event& event,
                                 core::ProtocolContext& ctx);
  /// An RREP arrived at the RREQ originator (route established). Default:
  /// finish the pending discovery; the learning step already emitted
  /// ROUTE_FOUND.
  virtual void on_rrep_at_origin(const ev::Event& event,
                                 core::ProtocolContext& ctx);

  /// Gate on rebroadcasting a fresh RREQ. Default: always relay (blind
  /// flooding). The optimised-flooding variant relays only when the
  /// previous hop selected this node as a multipoint relay.
  virtual bool should_relay_rreq(const ev::Event& event,
                                 core::ProtocolContext& ctx);

  /// Learns routes from the message (originator + accumulated path) through
  /// the previous hop. Installs kernel routes, finishes pending discoveries
  /// and emits ROUTE_FOUND for each accepted destination.
  void learn(const ev::Event& event, core::ProtocolContext& ctx);

  /// Replies to an RREQ. `bump_seq` = false replays the current sequence
  /// number — used when answering *duplicate* RREQs so the originator sees
  /// the copies as equal-freshness alternatives rather than replacements.
  void send_rrep(const ev::Event& rreq_event, core::ProtocolContext& ctx,
                 bool bump_seq = true);

  DymoParams params_;
  obs::Counter* rm_in_ = nullptr;      // cached "dymo.rm_in"
  obs::Counter* rrep_sent_ = nullptr;  // cached "dymo.rrep_sent"
};

/// Shared invalidation logic for SEND_ROUTE_ERR and NHOOD_CHANGE(down):
/// invalidates routes through the broken hop and broadcasts a RERR. The
/// multipath variant overrides fail_via() to switch to alternate paths
/// first.
class RouteInvalidationHandler : public core::EventHandler {
 public:
  explicit RouteInvalidationHandler(DymoParams params);

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override;

 protected:
  RouteInvalidationHandler(std::string type_name, DymoParams params);

  /// Invalidates paths through `hop`; returns the (dest, seq) pairs that
  /// became unreachable (to report in the RERR).
  virtual std::vector<std::pair<net::Addr, std::uint16_t>> fail_via(
      net::Addr hop, core::ProtocolContext& ctx);

  void broadcast_rerr(
      const std::vector<std::pair<net::Addr, std::uint16_t>>& unreachable,
      core::ProtocolContext& ctx);

  DymoParams params_;
  std::uint16_t rerr_seq_ = 1;
};

/// NO_ROUTE from NetLink: start (or join) a route discovery. The zone-hybrid
/// protocol overrides try_local_knowledge() to satisfy in-zone destinations
/// proactively, without flooding.
class NoRouteHandler : public core::EventHandler {
 public:
  explicit NoRouteHandler(DymoParams params);

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override;

 protected:
  NoRouteHandler(std::string type_name, DymoParams params);

  /// Returns true if a route to `dest` was produced from local knowledge
  /// (and ROUTE_FOUND emitted); false to fall through to discovery.
  virtual bool try_local_knowledge(net::Addr dest, core::ProtocolContext& ctx);

  DymoParams params_;
};

/// ROUTE_UPDATE from NetLink: data-plane usage extends route lifetimes.
class RouteUpdateHandler final : public core::EventHandler {
 public:
  explicit RouteUpdateHandler(DymoParams params);
  void handle(const ev::Event& event, core::ProtocolContext& ctx) override;

 private:
  DymoParams params_;
};

/// RERR processing: invalidate matching routes and propagate.
class RerrHandler final : public core::EventHandler {
 public:
  explicit RerrHandler(DymoParams params);
  void handle(const ev::Event& event, core::ProtocolContext& ctx) override;

 private:
  DymoParams params_;
};

/// Emission helpers shared with the zone-hybrid protocol.
void dymo_emit_route_found(core::ProtocolContext& ctx, net::Addr dest);
void dymo_send_rreq(core::ProtocolContext& ctx, net::Addr target,
                    const DymoParams& params);

std::unique_ptr<core::ManetProtocolCf> build_dymo_cf(core::Manetkit& kit,
                                                     DymoParams params = {});

/// Registers "dymo" (layer 20, category "reactive"); also registers
/// "neighbor" if absent.
void register_dymo(core::Manetkit& kit, DymoParams params = {});

DymoState* dymo_state(core::ManetProtocolCf& cf);

/// Initiates a route discovery directly (in addition to the NO_ROUTE-driven
/// path); used by tests and examples.
void dymo_discover(core::ManetProtocolCf& cf, net::Addr target,
                   DymoParams params = {});

}  // namespace mk::proto
