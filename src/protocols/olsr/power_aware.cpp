#include "protocols/olsr/power_aware.hpp"

#include "protocols/mpr/mpr_calculator.hpp"
#include "protocols/mpr/mpr_cf.hpp"
#include "protocols/mpr/mpr_handlers.hpp"
#include "protocols/olsr/olsr_cf.hpp"
#include "protocols/olsr/route_calculator.hpp"
#include "protocols/wire.hpp"
#include "util/assert.hpp"

namespace mk::proto {

namespace {

/// Owner of the battery advert on the MPR CF's piggyback registry.
constexpr const char* kPiggybackOwner = "olsr";

/// Replacement Hello Handler: derives the neighbour's effective willingness
/// (link cost) from the residual battery it piggybacks, rather than from the
/// neighbour's self-declared willingness alone.
class PowerAwareHelloHandler final : public MprHelloHandler {
 protected:
  std::uint8_t effective_willingness(const pbb::Message& msg,
                                     core::ProtocolContext& ctx) override {
    const auto* batt = msg.find_tlv(wire::kTlvBattery);
    if (batt != nullptr) {
      return willingness_from_battery(batt->as_u8() / 100.0);
    }
    return MprHelloHandler::effective_willingness(msg, ctx);
  }
};

/// Plugged into the OLSR CF: floods this node's residual battery level.
class ResidualPowerSource final : public core::PeriodicSource {
 public:
  ResidualPowerSource()
      : core::PeriodicSource("ResidualPower", sec(5),
                             /*jitter=*/0.1, /*seed_offset=*/3) {}

 private:
  void fire(core::ProtocolContext& ctx) override {
    OlsrState& st = ctx.state_as<OlsrState>();
    pbb::Message m;
    m.type = wire::kMsgResidualPower;
    m.originator = ctx.self();
    m.seqnum = st.next_msg_seq();
    m.tlvs.push_back(pbb::Tlv::u8(
        wire::kTlvBattery,
        static_cast<std::uint8_t>(st.own_battery() * 100.0)));
    static const ev::EventTypeId kRpOut = ev::etype("RP_OUT");
    ev::Event e(kRpOut);
    e.set_msg(std::move(m));
    ctx.emit(std::move(e));
  }
};

/// Tracks this node's own battery from POWER_STATUS context events.
class PowerTrackHandler final : public core::EventHandler {
 public:
  PowerTrackHandler()
      : core::EventHandler("PowerTrackHandler",
                           {ev::types::POWER_STATUS}) {}

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override {
    ctx.state_as<OlsrState>().set_own_battery(
        event.attr(ev::RealAttr::battery, 1.0));
  }
};

/// Records other nodes' flooded residual power and recomputes energy routes.
class ResidualPowerHandler final : public core::EventHandler {
 public:
  ResidualPowerHandler()
      : core::EventHandler("ResidualPowerHandler", {"RP_IN"}) {}

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override {
    if (!event.has_msg() || !event.msg()->originator) return;
    if (*event.msg()->originator == ctx.self()) return;
    const auto* batt = event.msg()->find_tlv(wire::kTlvBattery);
    if (batt == nullptr) return;
    ctx.state_as<OlsrState>().set_energy(*event.msg()->originator,
                                         batt->as_u8() / 100.0);
    olsr_recompute_routes(ctx.protocol());
  }
};

}  // namespace

void apply_power_aware(core::Manetkit& kit) {
  core::ManetProtocolCf* olsr = kit.protocol("olsr");
  core::ManetProtocolCf* mpr = kit.protocol("mpr");
  MK_ENSURE(olsr != nullptr && mpr != nullptr,
            "power-aware variant requires deployed olsr + mpr");
  if (is_power_aware(kit)) return;

  // --- MPR CF: power-aware relay selection -------------------------------
  {
    auto lock = mpr->quiesce();
    oc::ComponentId calc_id = mpr->find_id("MprCalculator");
    MK_ASSERT(calc_id != oc::kNoComponent);
    mpr->replace(calc_id, std::make_unique<EnergyMprCalculator>());
    mpr->replace_handler("HelloHandler",
                         std::make_unique<PowerAwareHelloHandler>());
    // Advertise our own battery in HELLOs via the piggyback service.
    net::SimNode* node = &kit.node();
    mpr_state(*mpr)->set_piggyback(kPiggybackOwner, [node]() {
      return pbb::Tlv::u8(wire::kTlvBattery,
                          static_cast<std::uint8_t>(node->battery() * 100.0));
    });
  }

  // --- flooding service learns the RP message family -----------------------
  mpr_add_flood_type(kit, *mpr, "RP", wire::kMsgResidualPower);

  // --- OLSR CF: energy route calculation + RP dissemination -----------------
  {
    auto lock = olsr->quiesce();
    oc::ComponentId rc_id = olsr->find_id("RouteCalculator");
    MK_ASSERT(rc_id != oc::kNoComponent);
    olsr->replace(rc_id, std::make_unique<EnergyRouteCalculator>(kit));
    olsr->add_handler(std::make_unique<PowerTrackHandler>());
    olsr->add_handler(std::make_unique<ResidualPowerHandler>());
    olsr->add_source(std::make_unique<ResidualPowerSource>());
  }
  olsr->declare_events({ev::types::TC_IN, ev::types::NHOOD_CHANGE,
                        ev::types::MPR_CHANGE, "RP_IN",
                        ev::types::POWER_STATUS},
                       {ev::types::TC_OUT, "RP_OUT"});
  olsr_recompute_routes(*olsr);
}

void remove_power_aware(core::Manetkit& kit) {
  core::ManetProtocolCf* olsr = kit.protocol("olsr");
  core::ManetProtocolCf* mpr = kit.protocol("mpr");
  MK_ENSURE(olsr != nullptr && mpr != nullptr,
            "power-aware variant requires deployed olsr + mpr");
  if (!is_power_aware(kit)) return;

  {
    auto lock = mpr->quiesce();
    oc::ComponentId calc_id = mpr->find_id("MprCalculator");
    mpr->replace(calc_id, std::make_unique<MprCalculator>());
    mpr->replace_handler("HelloHandler", std::make_unique<MprHelloHandler>());
    mpr_state(*mpr)->drop_piggyback(kPiggybackOwner);
  }
  {
    auto lock = olsr->quiesce();
    oc::ComponentId rc_id = olsr->find_id("RouteCalculator");
    olsr->replace(rc_id, std::make_unique<RouteCalculator>(kit));
    olsr->remove_handler("PowerTrackHandler");
    olsr->remove_handler("ResidualPowerHandler");
    olsr->remove_source("ResidualPower");
  }
  olsr->declare_events(
      {ev::types::TC_IN, ev::types::NHOOD_CHANGE, ev::types::MPR_CHANGE},
      {ev::types::TC_OUT});
  olsr_recompute_routes(*olsr);
}

bool is_power_aware(core::Manetkit& kit) {
  core::ManetProtocolCf* olsr = kit.protocol("olsr");
  if (olsr == nullptr) return false;
  return olsr->provider<EnergyRouteCalculator>() != nullptr;
}

}  // namespace mk::proto
