#include "policy/coordinator.hpp"

#include <map>

#include "protocols/wire.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mk::policy {

namespace {

constexpr std::uint8_t kMsgReconfig = 40;
constexpr std::uint8_t kTlvActionName = 11;
constexpr std::uint8_t kFloodHopLimit = 16;

/// S element: registered actions, per-origin campaign epochs, counters.
class ReconfigState final : public oc::Component, public core::IState {
 public:
  ReconfigState() : oc::Component("State") {}

  std::map<std::string, CoordinatedAction> actions;
  core::Manetkit* kit = nullptr;
  std::uint16_t epoch = 0;
  std::uint64_t executed = 0;

  /// True if (origin, ep) is a duplicate or stale campaign. The previous
  /// implementation kept a bounded FIFO of (origin, epoch) pairs, which
  /// re-admitted any epoch once 256 newer floods pushed it out — and treated
  /// the 65535→0 wraparound as 65536 fresh campaigns. Tracking only the
  /// newest epoch per origin under RFC 1982 serial comparison is wrap-safe,
  /// and OriginEpochMap bounds it by evicting long-silent origins.
  bool seen(net::Addr origin, std::uint16_t ep) {
    return latest_.seen(origin, ep);
  }

  std::string describe() const override {
    return "reconfig actions: " + std::to_string(actions.size()) +
           " executed: " + std::to_string(executed);
  }

 private:
  OriginEpochMap latest_;
};

pbb::Message build_command(net::Addr self, std::uint16_t epoch,
                           const std::string& action) {
  pbb::Message m;
  m.type = kMsgReconfig;
  m.originator = self;
  m.seqnum = epoch;
  m.has_hops = true;
  m.hop_limit = kFloodHopLimit;
  m.hop_count = 0;
  pbb::Tlv name_tlv;
  name_tlv.type = kTlvActionName;
  name_tlv.value.assign(action.begin(), action.end());
  m.tlvs.push_back(std::move(name_tlv));
  return m;
}

class ReconfigHandler final : public core::EventHandler {
 public:
  explicit ReconfigHandler(core::Manetkit& kit)
      : core::EventHandler("ReconfigHandler", {"RECONFIG_IN"}),
        kit_(kit) {}

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override {
    if (!event.has_msg() || !event.msg()->originator || !event.msg()->seqnum) {
      return;
    }
    const pbb::Message& msg = *event.msg();
    if (*msg.originator == ctx.self()) return;

    ReconfigState& st = ctx.state_as<ReconfigState>();
    if (st.seen(*msg.originator, *msg.seqnum)) return;

    const auto* name_tlv = msg.find_tlv(kTlvActionName);
    if (name_tlv == nullptr) return;
    std::string name(name_tlv->value.begin(), name_tlv->value.end());

    // Relay first ("make before break": keep the campaign spreading even if
    // our own enactment rewires this node's stack).
    if (msg.has_hops && msg.hop_limit > 1) {
      static const ev::EventTypeId kReconfigOut = ev::etype("RECONFIG_OUT");
      ev::Event out(kReconfigOut);
      pbb::Message& fwd = out.set_msg(msg);
      fwd.hop_limit -= 1;
      fwd.hop_count += 1;
      ctx.emit(std::move(out));
    }

    auto it = st.actions.find(name);
    if (it == st.actions.end()) {
      MK_WARN("reconfig", "unknown coordinated action '", name, "' from ",
              pbb::addr_to_string(*msg.originator));
      return;
    }
    MK_INFO("reconfig", "executing coordinated action '", name, "' (epoch ",
            *msg.seqnum, ")");
    ++st.executed;
    it->second(kit_);
  }

 private:
  core::Manetkit& kit_;
};

}  // namespace

core::ManetProtocolCf* deploy_coordinator(core::Manetkit& kit) {
  if (auto* existing = kit.protocol("reconfig")) return existing;
  if (!kit.has_builder("reconfig")) {
    kit.register_protocol("reconfig", /*layer=*/30, [](core::Manetkit& k) {
      k.system().register_message(kMsgReconfig, "RECONFIG");
      auto cf = std::make_unique<core::ManetProtocolCf>(
          "reconfig", k.scheduler(), k.self(), &k.system().sys_state());
      auto state = std::make_unique<ReconfigState>();
      state->kit = &k;
      cf->set_state(std::move(state));
      cf->add_handler(std::make_unique<ReconfigHandler>(k));
      cf->declare_events({"RECONFIG_IN"}, {"RECONFIG_OUT"});
      return cf;
    });
  }
  return kit.deploy("reconfig");
}

void register_action(core::ManetProtocolCf& coordinator, std::string name,
                     CoordinatedAction action) {
  MK_ASSERT(action != nullptr);
  auto lock = coordinator.quiesce();
  coordinator.context().state_as<ReconfigState>().actions[std::move(name)] =
      std::move(action);
}

std::uint16_t initiate(core::ManetProtocolCf& coordinator,
                       const std::string& action_name) {
  CoordinatedAction local;
  std::uint16_t epoch = 0;
  core::Manetkit* kit = nullptr;
  {
    auto lock = coordinator.quiesce();
    auto& ctx = coordinator.context();
    ReconfigState& st = ctx.state_as<ReconfigState>();
    auto it = st.actions.find(action_name);
    MK_ENSURE(it != st.actions.end(),
              "unknown coordinated action: " + action_name);
    local = it->second;
    kit = st.kit;
    epoch = ++st.epoch;
    st.seen(ctx.self(), epoch);  // don't re-execute our own flood
    ++st.executed;

    static const ev::EventTypeId kReconfigOut = ev::etype("RECONFIG_OUT");
    ev::Event out(kReconfigOut);
    out.set_msg(build_command(ctx.self(), epoch, action_name));
    ctx.emit(std::move(out));
  }
  // Run the local enactment outside the coordinator's lock: the action may
  // itself quiesce other CFs and re-enter the manager.
  MK_ASSERT(kit != nullptr);
  local(*kit);
  return epoch;
}

std::uint64_t commands_executed(core::ManetProtocolCf& coordinator) {
  auto lock = coordinator.quiesce();
  return coordinator.context().state_as<ReconfigState>().executed;
}

}  // namespace mk::policy
