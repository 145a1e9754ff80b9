// The Neighbour Detection CF (§4.3): a generally-useful ManetProtocol
// instance maintaining 1-hop/2-hop neighbourhood information via periodic
// HELLO exchange, notifying upper protocols of link breaks (NHOOD_CHANGE)
// and offering piggybacked dissemination.
//
// Its link-sensing core is shared with the MPR CF: HELLO emission, the
// HELLO handler (note-heard, holding time, symmetry, LOST, 2-hop gathering,
// piggyback dispatch), the link soft set and the NHOOD_CHANGE notification.
// Both CFs keep their link tuples in a NeighborTable-derived S element. The
// MPR CF, and the power-aware OLSR variant through it, only override the
// hooks: link codes, willingness and the MPR-aware marker on emission;
// willingness, hysteresis, selector tracking and relay recomputation on
// receipt.
//
// Event tuple: <required = {HELLO_IN}, provided = {HELLO_OUT, NHOOD_CHANGE}>.
//
// The sensing mechanism is pluggable: the default is HELLO-based
// (HelloSource + HelloHandler); enable_link_layer_feedback() swaps in a
// component fed by the medium's link notifications instead.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/manet_protocol.hpp"
#include "core/manetkit.hpp"
#include "core/soft_state.hpp"
#include "protocols/hello_codec.hpp"
#include "protocols/neighbor/neighbor_state.hpp"
#include "protocols/timing.hpp"

namespace mk::proto {

/// Soft-state set id of the link tuples: define_link_set() must be the
/// first set a sensing CF defines.
inline constexpr core::SoftExpiry::SetId kLinkSet = 0;

void emit_nhood_change(core::ProtocolContext& ctx, net::Addr neighbor, bool up);

/// Removes `neighbor` from the CF's table and, if the link was symmetric,
/// emits NHOOD_CHANGE down: the link soft set's default loss fn.
void drop_link(std::uint64_t neighbor, core::ProtocolContext& ctx);

/// Defines the link soft set `name` (id kLinkSet) on `soft`: every HELLO
/// re-arms the sender's holding time; a lapse runs `on_lost`. Restarts
/// reseed it from the table's heard neighbours.
void define_link_set(core::SoftExpiry& soft, std::string name, Duration hold,
                     core::SoftExpiry::LossFn on_lost = drop_link);

/// Periodic HELLO emission: one link per tracked neighbour, then the
/// table's piggyback TLVs. Link expiry is per-entry via the link soft set,
/// not swept here.
class HelloSource : public core::PeriodicSource {
 public:
  explicit HelloSource(Duration interval);

 protected:
  /// Code advertised for a neighbour (SYM / ASYM by default).
  virtual wire::LinkCode link_code(const NeighborTable&, net::Addr,
                                   bool sym) const {
    return sym ? wire::LinkCode::kSym : wire::LinkCode::kAsym;
  }
  /// Willingness advertised in the HELLO.
  virtual std::uint8_t willingness(const NeighborTable&) const {
    return wire::kWillDefault;
  }
  /// Last step before emission (after the piggyback TLVs).
  virtual void finish(pbb::Message&) const {}

 private:
  void fire(core::ProtocolContext& ctx) override;

  std::uint16_t seq_ = 1;
  std::vector<hello::Link> links_scratch_;  // reused per emission
};

/// Link sensing from received HELLOs.
class HelloHandler : public core::EventHandler {
 public:
  HelloHandler();

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override;

 protected:
  /// After the sender is noted and its holding time re-armed; returns false
  /// to hold the link below symmetric (a link-quality gate).
  virtual bool on_heard(const pbb::Message&, net::Addr,
                        core::ProtocolContext&) {
    return true;
  }
  /// The sender lists us as LOST: forget the link at once.
  virtual void on_lost(net::Addr from, core::ProtocolContext& ctx);
  /// After the symmetry update, with the code the sender lists us under.
  virtual void on_listed(const pbb::Message&, std::optional<wire::LinkCode>,
                         net::Addr, core::ProtocolContext&) {}
  /// Link codes whose addresses count as the sender's symmetric neighbours
  /// (SYM only; the MPR CF also counts MPR-coded links).
  virtual bool two_hop_code(wire::LinkCode code) const {
    return code == wire::LinkCode::kSym;
  }
  /// Last step, after 2-hop and piggyback processing.
  virtual void after_hello(core::ProtocolContext&) {}

 private:
  std::vector<net::Addr> two_hop_scratch_;  // reused per HELLO
};

/// Builds the Neighbour Detection CF instance (registered as "neighbor"):
/// HELLOs every kHelloInterval, links held for kNeighbHoldTime.
std::unique_ptr<core::ManetProtocolCf> build_neighbor_cf(core::Manetkit& kit);

/// Registers the "neighbor" builder with a kit (layer 10).
void register_neighbor(core::Manetkit& kit);

/// Replaces the HELLO-based sensing of a deployed Neighbour Detection CF
/// with link-layer feedback from the medium (the paper's alternative
/// pluggable mechanism). HELLOs keep flowing (piggybacking still works) but
/// symmetry/loss is driven by the driver callbacks.
void enable_link_layer_feedback(core::Manetkit& kit,
                                core::ManetProtocolCf& neighbor_cf);

/// Fetches the S element of a Neighbour Detection (or MPR) CF.
NeighborTable* neighbor_state(core::ManetProtocolCf& cf);

}  // namespace mk::proto
