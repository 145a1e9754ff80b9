#include "protocols/olsr/fisheye.hpp"

namespace mk::proto {

namespace {

class FisheyeHandler final : public core::EventHandler {
 public:
  FisheyeHandler()
      : core::EventHandler("FisheyeHandler", {ev::types::TC_OUT}) {}

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override {
    if (!event.has_msg()) return;
    ev::Event out = event;
    pbb::Message& msg = out.mutable_msg();
    if (!msg.has_hops) {
      msg.has_hops = true;
      msg.hop_count = 0;
    }
    msg.hop_limit = kFisheyeTtlPattern[counter_++ % kFisheyeTtlPattern.size()];
    ctx.emit(std::move(out));
  }

 private:
  std::size_t counter_ = 0;
};

}  // namespace

std::unique_ptr<core::ManetProtocolCf> build_fisheye_cf(core::Manetkit& kit) {
  auto cf = std::make_unique<core::ManetProtocolCf>(
      "olsr-fisheye", kit.scheduler(), kit.self(), &kit.system().sys_state());
  cf->add_handler(std::make_unique<FisheyeHandler>());
  // Requiring and providing TC_OUT makes this unit an interposer on the
  // TC_OUT path — no other wiring is needed.
  cf->declare_events({ev::types::TC_OUT}, {ev::types::TC_OUT});
  return cf;
}

core::ManetProtocolCf* apply_fisheye(core::Manetkit& kit) {
  if (!kit.has_builder("olsr-fisheye")) {
    kit.register_protocol("olsr-fisheye", /*layer=*/15, build_fisheye_cf);
  }
  return kit.deploy("olsr-fisheye");
}

void remove_fisheye(core::Manetkit& kit) {
  if (kit.is_deployed("olsr-fisheye")) kit.undeploy("olsr-fisheye");
}

}  // namespace mk::proto
