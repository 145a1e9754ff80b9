#include "protocols/mpr/mpr_cf.hpp"

#include <algorithm>
#include <vector>

#include "core/soft_state.hpp"
#include "protocols/mpr/mpr_handlers.hpp"
#include "protocols/timing.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mk::proto {

namespace {


/// The shared HELLO emission, advertising MPR link codes for selected
/// relays, this node's willingness and the MPR-aware marker.
class MprHelloSource final : public HelloSource {
 public:
  MprHelloSource() : HelloSource(kHelloInterval) {}

 protected:
  // The MPR CF's S element is always an MprState.
  wire::LinkCode link_code(const NeighborTable& table, net::Addr a,
                           bool sym) const override {
    if (sym && static_cast<const MprState&>(table).is_mpr(a)) {
      return wire::LinkCode::kMpr;
    }
    return HelloSource::link_code(table, a, sym);
  }

  std::uint8_t willingness(const NeighborTable& table) const override {
    return static_cast<const MprState&>(table).own_willingness();
  }

  void finish(pbb::Message& msg) const override {
    msg.tlvs.push_back(pbb::Tlv::empty(wire::kTlvMprAware));
  }
};

/// POWER_STATUS context events drive this node's advertised willingness —
/// the paper's example of context-informed relay selection.
class PowerStatusHandler final : public core::EventHandler {
 public:
  PowerStatusHandler()
      : core::EventHandler("PowerStatusHandler",
                           {ev::types::POWER_STATUS}) {}

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override {
    ctx.state_as<MprState>().set_own_willingness(
        willingness_from_battery(event.attr(ev::RealAttr::battery, 1.0)));
  }
};

/// Each flood base's event type name ("TC" + "_IN" -> "TC_IN").
std::vector<std::string> suffixed(const std::vector<std::string>& bases,
                                  const std::string& suffix) {
  std::vector<std::string> out;
  for (const auto& b : bases) out.push_back(b + suffix);
  return out;
}

/// Outbound leg of the flooding service: protocols above emit <base>_OUT;
/// this handler stamps the duplicate set (so the node's own flood is never
/// re-relayed) and passes the message down towards the System CF.
class FloodOutHandler final : public core::EventHandler {
 public:
  explicit FloodOutHandler(const std::vector<std::string>& bases)
      : core::EventHandler("FloodOut", suffixed(bases, "_OUT")) {}

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override {
    if (!event.has_msg()) return;
    ev::Event out = event;
    MK_ASSERT(out.msg()->originator.has_value() && out.msg()->seqnum.has_value(),
              "flooded messages need originator + seqnum");
    pbb::Message& msg = out.mutable_msg();
    if (!msg.has_hops) {
      msg.has_hops = true;
      msg.hop_limit = 255;
      msg.hop_count = 0;
    }
    ctx.state_as<MprState>().check_duplicate(*msg.originator, *msg.seqnum);
    if (auto* soft = ctx.soft()) {
      soft->touch(mpr_sets::kDuplicate,
                  mpr_dup_key(*msg.originator, *msg.seqnum));
    }
    ctx.emit(std::move(out));
  }
};

/// Inbound leg: retransmits a received flood message iff the previous hop
/// selected this node as one of its MPRs (and TTL allows), after duplicate
/// suppression. This is what curbs flooding overhead in dense networks.
class FloodRelayHandler final : public core::EventHandler {
 public:
  explicit FloodRelayHandler(const std::vector<std::string>& bases)
      : core::EventHandler("FloodRelay", suffixed(bases, "_IN")) {
    for (const auto& b : bases) {
      out_for_in_[ev::etype(b + "_IN")] = ev::etype(b + "_OUT");
    }
  }

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override {
    if (!event.has_msg()) return;
    const pbb::Message& msg = *event.msg();
    if (!msg.originator || !msg.seqnum) return;
    if (*msg.originator == ctx.self()) return;

    MprState& st = ctx.state_as<MprState>();
    bool dup = st.check_duplicate(*msg.originator, *msg.seqnum);
    if (auto* soft = ctx.soft()) {
      // Every sighting refreshes the tuple's holding time (RFC 3626 §3.4).
      soft->touch(mpr_sets::kDuplicate,
                  mpr_dup_key(*msg.originator, *msg.seqnum));
    }
    if (dup) return;
    if (!st.is_mpr_selector(event.from)) return;  // we are not its relay
    if (msg.has_hops && msg.hop_limit <= 1) return;

    ev::Event out(out_for_in_.at(event.type()));
    // Share the inbound message; clone (COW) only if hop fields need edits.
    out.set_msg(event.shared_msg());
    if (msg.has_hops) {
      pbb::Message& fwd = out.mutable_msg();
      fwd.hop_limit -= 1;
      fwd.hop_count += 1;
    }
    ctx.emit(std::move(out));
  }

 private:
  std::map<ev::EventTypeId, ev::EventTypeId> out_for_in_;
};

/// Direct-call flooding service (the F element), for callers that look up
/// this CF's IForward interface.
class MprForward final : public oc::Component, public core::IForward {
 public:
  explicit MprForward(core::ManetProtocolCf& cf)
      : oc::Component("Forward"), cf_(cf) {}

  void forward(const ev::Event& event) override { cf_.deliver(event); }

 private:
  core::ManetProtocolCf& cf_;
};

/// Periodic hysteresis decay (RFC 3626 §14's per-interval quality update;
/// the plug-in decays only links that missed their HELLO since the last
/// tick) — genuinely interval-driven, so it keeps its own timer.
/// Link/selector/duplicate expiry is per-entry via the shared soft-state
/// layer (see build_mpr_cf), not swept here.
class HysteresisTick final : public core::PeriodicSource {
 public:
  HysteresisTick()
      : core::PeriodicSource("HysteresisTick", kHelloInterval,
                             /*jitter=*/0.0, /*seed_offset=*/1) {}

 private:
  void fire(core::ProtocolContext& ctx) override {
    MprState& st = ctx.state_as<MprState>();
    if (auto* hyst = ctx.protocol().provider<IHysteresis>()) {
      for (net::Addr a : st.heard_neighbors()) hyst->on_interval(a);
    }
  }
};

void apply_tuple(core::ManetProtocolCf& cf,
                 const std::vector<std::string>& bases) {
  std::vector<std::string> required = {ev::types::HELLO_IN,
                                       ev::types::POWER_STATUS};
  std::vector<std::string> provided = {ev::types::HELLO_OUT,
                                       ev::types::NHOOD_CHANGE,
                                       ev::types::MPR_CHANGE};
  for (const auto& b : bases) {
    required.push_back(b + "_IN");
    required.push_back(b + "_OUT");
    provided.push_back(b + "_OUT");
  }
  cf.declare_events(required, provided);
}

}  // namespace

std::unique_ptr<core::ManetProtocolCf> build_mpr_cf(core::Manetkit& kit) {
  kit.system().register_message(wire::kMsgHello, "HELLO");
  kit.system().register_message(wire::kMsgTc, "TC");
  kit.system().ensure_power_status();

  auto cf = std::make_unique<core::ManetProtocolCf>(
      "mpr", kit.scheduler(), kit.self(), &kit.system().sys_state());

  // Integrity: exactly one MPR-calculation strategy at a time.
  cf->add_integrity_rule([](const oc::CfView& view, std::string& err) {
    if (view.count<IMprCalculator>() > 1) {
      err = "MPR CF admits a single IMprCalculator plug-in";
      return false;
    }
    return true;
  });

  cf->set_state(std::make_unique<MprState>());
  cf->insert(std::make_unique<MprCalculator>());
  cf->set_forward(std::make_unique<MprForward>(*cf));

  // Link, MPR-selector and flooding-duplicate tuples live in the shared
  // soft-state layer (set ids fixed by definition order — see mpr_sets).
  // Every HELLO / flood sighting re-arms the entry's holding time; lapse
  // drops it and propagates the loss (NHOOD_CHANGE / MPR_CHANGE) at the
  // entry's own deadline instead of at sweep granularity.
  auto soft = std::make_unique<core::SoftExpiry>();
  define_link_set(
      *soft, "mpr.link", kNeighbHoldTime,
      [](std::uint64_t key, core::ProtocolContext& ctx) {
        auto addr = static_cast<net::Addr>(key);
        bool was_selector = forget_selector(ctx, addr);
        drop_link(addr, ctx);
        if (was_selector) emit_mpr_change(ctx);
        recompute_mprs(ctx);
      });
  soft->define_set(
      "mpr.selector", kNeighbHoldTime,
      [](std::uint64_t key, core::ProtocolContext& ctx) {
        MprState& st = ctx.state_as<MprState>();
        auto addr = static_cast<net::Addr>(key);
        if (st.is_mpr_selector(addr)) {
          st.drop_selector(addr);
          emit_mpr_change(ctx);
        }
      },
      [](core::ProtocolContext& ctx) {
        return core::seed_keys(ctx.state_as<MprState>().mpr_selectors());
      });
  soft->define_set(
      "mpr.duplicate", kDupHoldTime,
      [](std::uint64_t key, core::ProtocolContext& ctx) {
        ctx.state_as<MprState>().drop_duplicate(
            static_cast<net::Addr>(key >> 16),
            static_cast<std::uint16_t>(key & 0xFFFF));
      },
      [](core::ProtocolContext& ctx) {
        std::vector<std::uint64_t> keys;
        for (const auto& [origin, seq] :
             ctx.state_as<MprState>().duplicate_entries()) {
          keys.push_back(mpr_dup_key(origin, seq));
        }
        return keys;
      });
  cf->add_source(std::move(soft));

  std::vector<std::string> bases = {"TC"};
  cf->add_handler(std::make_unique<MprHelloHandler>());
  cf->add_handler(std::make_unique<PowerStatusHandler>());
  cf->add_handler(std::make_unique<FloodOutHandler>(bases));
  cf->add_handler(std::make_unique<FloodRelayHandler>(bases));
  cf->add_source(std::make_unique<MprHelloSource>());

  apply_tuple(*cf, bases);
  return cf;
}

void register_mpr(core::Manetkit& kit) {
  kit.register_protocol("mpr", /*layer=*/10, build_mpr_cf);
}

void apply_mpr_hysteresis(core::Manetkit& kit) {
  core::ManetProtocolCf* mpr = kit.protocol("mpr");
  MK_ENSURE(mpr != nullptr, "hysteresis requires a deployed mpr");
  auto lock = mpr->quiesce();
  if (mpr->find("Hysteresis") != nullptr) return;
  mpr->insert(std::make_unique<Hysteresis>());
  mpr->add_source(std::make_unique<HysteresisTick>());
}

void mpr_add_flood_type(core::Manetkit& kit, core::ManetProtocolCf& mpr_cf,
                        const std::string& base, std::uint8_t msg_type) {
  kit.system().register_message(msg_type, base);

  auto lock = mpr_cf.quiesce();
  // Recover the current flood bases from the FloodRelay handler's
  // subscriptions, then rebuild both handlers with the widened set.
  std::vector<std::string> bases;
  if (auto* relay = dynamic_cast<core::EventHandler*>(
          mpr_cf.control().find("FloodRelay"))) {
    for (ev::EventTypeId t : relay->handles()) {
      std::string name = ev::EventTypeRegistry::instance().name(t);
      bases.push_back(name.substr(0, name.size() - 3));  // strip "_IN"
    }
  }
  if (std::find(bases.begin(), bases.end(), base) != bases.end()) return;
  bases.push_back(base);

  mpr_cf.replace_handler("FloodOut", std::make_unique<FloodOutHandler>(bases));
  mpr_cf.replace_handler("FloodRelay",
                         std::make_unique<FloodRelayHandler>(bases));
  apply_tuple(mpr_cf, bases);
}

MprState* mpr_state(core::ManetProtocolCf& cf) {
  return dynamic_cast<MprState*>(cf.state_component());
}

void recompute_mprs(core::ManetProtocolCf& cf) {
  auto lock = cf.quiesce();
  recompute_mprs(cf.context());
}

}  // namespace mk::proto
