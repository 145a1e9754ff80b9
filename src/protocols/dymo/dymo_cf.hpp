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
// packets. Those four steps are the reactive core (protocols/reactive.hpp),
// shared with AODV; this file adds the RM/RERR processing.
//
// The RE (routing element) handler is exported so the optimised-flooding,
// gossip, zone and multipath variants can subclass/replace it (§5.2).
#pragma once

#include <memory>

#include "core/manet_protocol.hpp"
#include "core/manetkit.hpp"
#include "core/soft_state.hpp"
#include "protocols/dymo/dymo_state.hpp"
#include "protocols/wire.hpp"

namespace mk::proto {

/// Soft-state set ids of the DYMO CF (and its ZRP/multipath/gossip
/// derivatives) beyond the reactive_sets, fixed by definition order in
/// build_dymo_cf.
namespace dymo_sets {
inline constexpr core::SoftExpiry::SetId kDuplicate = 2;
}  // namespace dymo_sets

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
  ReHandler();

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override;

 protected:
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

  const ev::EventTypeId rm_out_;       // "RM_OUT", resolved once
  obs::Counter* rm_in_ = nullptr;      // cached "dymo.rm_in"
  obs::Counter* rrep_sent_ = nullptr;  // cached "dymo.rrep_sent"
};

/// RERR processing: invalidate matching routes and propagate.
class RerrHandler final : public core::EventHandler {
 public:
  RerrHandler();
  void handle(const ev::Event& event, core::ProtocolContext& ctx) override;

 private:
  const ev::EventTypeId rerr_out_;   // "RERR_OUT", resolved once
  obs::Counter* rerr_in_ = nullptr;  // cached "dymo.rerr_in"
};

/// DYMO's binding to the reactive core: RM_OUT RREQs, RERR_OUT RERRs.
ReactiveProtocol dymo_reactive();

std::unique_ptr<core::ManetProtocolCf> build_dymo_cf(core::Manetkit& kit);

/// Registers "dymo" (layer 20, category "reactive"); also registers
/// "neighbor" if absent.
void register_dymo(core::Manetkit& kit);

DymoState* dymo_state(core::ManetProtocolCf& cf);

}  // namespace mk::proto
