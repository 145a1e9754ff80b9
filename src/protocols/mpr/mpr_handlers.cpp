#include "protocols/mpr/mpr_handlers.hpp"

#include "protocols/mpr/mpr_calculator.hpp"

namespace mk::proto {

void recompute_mprs(core::ProtocolContext& ctx) {
  auto* calc = ctx.protocol().provider<IMprCalculator>();
  if (calc != nullptr && calc->update(ctx.state_as<MprState>(), ctx.self())) {
    emit_mpr_change(ctx);
  }
}

std::uint8_t willingness_from_battery(double level) {
  if (level > 0.8) return wire::kWillHigh;
  if (level > 0.5) return 4;
  if (level > 0.3) return wire::kWillDefault;
  if (level > 0.1) return wire::kWillLow;
  return wire::kWillNever;
}

bool forget_selector(core::ProtocolContext& ctx, net::Addr neighbor) {
  if (auto* soft = ctx.soft()) soft->drop(mpr_sets::kSelector, neighbor);
  MprState& st = ctx.state_as<MprState>();
  bool was_selector = st.is_mpr_selector(neighbor);
  st.drop_selector(neighbor);
  return was_selector;
}

std::uint8_t MprHelloHandler::effective_willingness(const pbb::Message& msg,
                                                    core::ProtocolContext&) {
  return hello::willingness(msg);
}

bool MprHelloHandler::on_heard(const pbb::Message& msg, net::Addr from,
                               core::ProtocolContext& ctx) {
  ctx.state_as<MprState>().set_willingness_of(from,
                                              effective_willingness(msg, ctx));
  // Optional hysteresis plug-in gates link establishment.
  if (auto* hyst = ctx.protocol().provider<IHysteresis>()) {
    hyst->on_hello(from);
    return !hyst->pending(from);
  }
  return true;
}

void MprHelloHandler::on_lost(net::Addr from, core::ProtocolContext& ctx) {
  // Same steps, in the same order, as the mpr.link expiry path.
  const bool was_selector = forget_selector(ctx, from);
  HelloHandler::on_lost(from, ctx);
  if (was_selector) emit_mpr_change(ctx);
  recompute_mprs(ctx);
}

void MprHelloHandler::on_listed(const pbb::Message& msg,
                                std::optional<wire::LinkCode> our_code,
                                net::Addr from, core::ProtocolContext& ctx) {
  // The sender selected us as an MPR iff it lists us with the MPR code.
  // Selector information is only meaningful in HELLOs from an MPR-aware
  // source; a co-deployed Neighbour Detection CF also emits (plain) HELLOs
  // and must not clear the selector set.
  if (msg.find_tlv(wire::kTlvMprAware) == nullptr) return;
  MprState& st = ctx.state_as<MprState>();
  bool was_selector = st.is_mpr_selector(from);
  if (our_code == wire::LinkCode::kMpr) {
    st.note_selector(from);
    if (auto* soft = ctx.soft()) soft->touch(mpr_sets::kSelector, from);
  } else {
    forget_selector(ctx, from);
  }
  // Relay selection changed from the selector side too: protocols above
  // (OLSR's triggered TC) need to hear about it.
  if (was_selector != st.is_mpr_selector(from)) emit_mpr_change(ctx);
}

bool MprHelloHandler::two_hop_code(wire::LinkCode code) const {
  return code == wire::LinkCode::kSym || code == wire::LinkCode::kMpr;
}

void MprHelloHandler::after_hello(core::ProtocolContext& ctx) {
  recompute_mprs(ctx);
}

}  // namespace mk::proto
