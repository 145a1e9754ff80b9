// Public handler classes and helpers of the MPR CF that variant code
// subclasses or replaces (the power-aware OLSR variant replaces the Hello
// Handler and the MPR Calculator, §5.1).
#pragma once

#include <optional>
#include <string>

#include "core/manet_protocol.hpp"
#include "core/soft_state.hpp"
#include "protocols/mpr/mpr_state.hpp"
#include "protocols/neighbor/neighbor_cf.hpp"

namespace mk::proto {

/// Soft-state set ids of the MPR CF, fixed by definition order in
/// build_mpr_cf (the link set comes first, as kLinkSet).
namespace mpr_sets {
inline constexpr core::SoftExpiry::SetId kSelector = 1;
inline constexpr core::SoftExpiry::SetId kDuplicate = 2;
}  // namespace mpr_sets

/// Emits MPR_CHANGE (its type id resolved once).
inline void emit_mpr_change(core::ProtocolContext& ctx) {
  static const ev::EventTypeId kMprChange = ev::etype(ev::types::MPR_CHANGE);
  ctx.emit(ev::Event(kMprChange));
}

/// Recomputes MPRs via the protocol's IMprCalculator plug-in; emits
/// MPR_CHANGE on change.
void recompute_mprs(core::ProtocolContext& ctx);

/// Drops `neighbor` from the MPR-selector set and its soft-state tuple;
/// returns true if it was a selector.
bool forget_selector(core::ProtocolContext& ctx, net::Addr neighbor);

std::uint8_t willingness_from_battery(double level);

/// The shared HELLO handler plus willingness tracking, the optional
/// hysteresis gate, MPR-selector detection and relay recomputation.
class MprHelloHandler : public HelloHandler {
 protected:
  /// Willingness attributed to the sender. The power-aware variant derives
  /// it from the advertised residual battery (transmission-power cost).
  virtual std::uint8_t effective_willingness(const pbb::Message& msg,
                                             core::ProtocolContext& ctx);

  bool on_heard(const pbb::Message& msg, net::Addr from,
                core::ProtocolContext& ctx) override;
  void on_lost(net::Addr from, core::ProtocolContext& ctx) override;
  void on_listed(const pbb::Message& msg,
                 std::optional<wire::LinkCode> our_code, net::Addr from,
                 core::ProtocolContext& ctx) override;
  bool two_hop_code(wire::LinkCode code) const override;
  void after_hello(core::ProtocolContext& ctx) override;
};

}  // namespace mk::proto
