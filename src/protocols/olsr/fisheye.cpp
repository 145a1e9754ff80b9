#include "protocols/olsr/fisheye.hpp"

#include "util/assert.hpp"

namespace mk::proto {

namespace {

class FisheyeHandler final : public core::EventHandler {
 public:
  explicit FisheyeHandler(FisheyeParams params)
      : core::EventHandler("olsr.FisheyeHandler", {ev::types::TC_OUT}),
        params_(std::move(params)) {
    set_instance_name("FisheyeHandler");
    MK_ASSERT(!params_.ttl_pattern.empty());
  }

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override {
    if (!event.has_msg()) return;
    ev::Event out = event;
    pbb::Message& msg = out.mutable_msg();
    if (!msg.has_hops) {
      msg.has_hops = true;
      msg.hop_count = 0;
    }
    msg.hop_limit = params_.ttl_pattern[counter_++ % params_.ttl_pattern.size()];
    ctx.emit(std::move(out));
  }

 private:
  FisheyeParams params_;
  std::size_t counter_ = 0;
};

}  // namespace

std::unique_ptr<core::ManetProtocolCf> build_fisheye_cf(core::Manetkit& kit,
                                                        FisheyeParams params) {
  auto cf = std::make_unique<core::ManetProtocolCf>(
      "olsr-fisheye", kit.scheduler(), kit.self(), &kit.system().sys_state());
  cf->add_handler(std::make_unique<FisheyeHandler>(std::move(params)));
  // Requiring and providing TC_OUT makes this unit an interposer on the
  // TC_OUT path — no other wiring is needed.
  cf->declare_events({ev::types::TC_OUT}, {ev::types::TC_OUT});
  return cf;
}

core::ManetProtocolCf* apply_fisheye(core::Manetkit& kit,
                                     FisheyeParams params) {
  if (!kit.has_builder("olsr-fisheye")) {
    kit.register_protocol(
        "olsr-fisheye", /*layer=*/15,
        [params](core::Manetkit& k) { return build_fisheye_cf(k, params); });
  }
  return kit.deploy("olsr-fisheye");
}

void remove_fisheye(core::Manetkit& kit) {
  if (kit.is_deployed("olsr-fisheye")) kit.undeploy("olsr-fisheye");
}

}  // namespace mk::proto
