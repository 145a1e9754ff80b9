#include "protocols/mpr/mpr_handlers.hpp"

#include <algorithm>

#include "core/attrs.hpp"
#include "protocols/hello_codec.hpp"
#include "protocols/mpr/mpr_calculator.hpp"

namespace mk::proto {

void emit_nhood_change(core::ProtocolContext& ctx, net::Addr neighbor, bool up) {
  ev::Event e(ev::types::NHOOD_CHANGE);
  e.set_int(core::attrs::kNeighbor, neighbor);
  e.set_int(core::attrs::kUp, up ? 1 : 0);
  ctx.emit(std::move(e));
}

void recompute_mprs(core::ProtocolContext& ctx) {
  MprState& st = ctx.state_as<MprState>();
  auto* calc_comp = ctx.protocol().find("MprCalculator");
  if (calc_comp == nullptr) return;
  auto* calc = calc_comp->interface_as<IMprCalculator>("IMprCalculator");
  if (calc == nullptr) return;
  if (st.set_mprs(calc->compute(st, ctx.self()))) {
    ctx.emit(ev::Event(ev::types::MPR_CHANGE));
  }
}

std::uint8_t willingness_from_battery(double level) {
  if (level > 0.8) return wire::kWillHigh;
  if (level > 0.5) return 4;
  if (level > 0.3) return wire::kWillDefault;
  if (level > 0.1) return wire::kWillLow;
  return wire::kWillNever;
}

MprHelloHandler::MprHelloHandler() : MprHelloHandler("mpr.HelloHandler") {}

MprHelloHandler::MprHelloHandler(std::string type_name)
    : core::EventHandler(std::move(type_name), {ev::types::HELLO_IN}) {
  set_instance_name("HelloHandler");
}

std::uint8_t MprHelloHandler::effective_willingness(const pbb::Message& msg,
                                                    core::ProtocolContext&) {
  return hello::willingness(msg);
}

void MprHelloHandler::handle(const ev::Event& event,
                             core::ProtocolContext& ctx) {
  if (!event.has_msg()) return;
  const pbb::Message& msg = *event.msg();
  net::Addr from = event.from;
  if (from == ctx.self()) return;

  MprState& st = ctx.state_as<MprState>();
  st.note_heard(from);
  core::SoftExpiry* soft = ctx.soft();
  if (soft != nullptr) soft->touch(mpr_sets::kLink, from);
  st.set_willingness_of(from, effective_willingness(msg, ctx));

  // Optional hysteresis plug-in gates link establishment.
  bool gate_ok = true;
  if (auto* hyst_comp = ctx.protocol().find("Hysteresis")) {
    if (auto* hyst = hyst_comp->interface_as<IHysteresis>("IHysteresis")) {
      hyst->on_hello(from);
      gate_ok = !hyst->pending(from);
    }
  }

  auto our_code = hello::code_for(msg, ctx.self());
  if (our_code.has_value() && *our_code == wire::LinkCode::kLost) {
    if (soft != nullptr) {
      soft->drop(mpr_sets::kSelector, from);
      soft->drop(mpr_sets::kLink, from);
    }
    st.drop_selector(from);
    if (st.remove(from)) emit_nhood_change(ctx, from, false);
    recompute_mprs(ctx);
    return;
  }

  bool sym = our_code.has_value() && gate_ok;
  if (st.set_symmetric(from, sym)) emit_nhood_change(ctx, from, sym);

  // The sender selected us as an MPR iff it lists us with the MPR code.
  // Selector information is only meaningful in HELLOs from an MPR-aware
  // source; a co-deployed Neighbour Detection CF also emits (plain) HELLOs
  // and must not clear the selector set.
  if (msg.find_tlv(wire::kTlvMprAware) != nullptr) {
    bool was_selector = st.is_mpr_selector(from);
    if (our_code.has_value() && *our_code == wire::LinkCode::kMpr) {
      st.note_selector(from);
      if (soft != nullptr) soft->touch(mpr_sets::kSelector, from);
    } else {
      st.drop_selector(from);
      if (soft != nullptr) soft->drop(mpr_sets::kSelector, from);
    }
    // Relay selection changed from the selector side too: protocols above
    // (OLSR's triggered TC) need to hear about it.
    if (was_selector != st.is_mpr_selector(from)) {
      ctx.emit(ev::Event(ev::types::MPR_CHANGE));
    }
  }

  hello::two_hop_into(two_hop_scratch_, msg, ctx.self(), [](wire::LinkCode c) {
    return c == wire::LinkCode::kSym || c == wire::LinkCode::kMpr;
  });
  st.set_two_hop(from, two_hop_scratch_);

  hello::for_each_piggyback(
      msg, [&](const pbb::Tlv& t) { st.dispatch_piggyback(from, t); });

  recompute_mprs(ctx);
}

}  // namespace mk::proto
