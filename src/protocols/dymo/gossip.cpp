#include "protocols/dymo/gossip.hpp"

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace mk::proto {

namespace {

class GossipReHandler final : public ReHandler {
 public:
  explicit GossipReHandler(GossipParams gossip)
      : gossip_(gossip), rng_(gossip.seed) {}

 protected:
  bool should_relay_rreq(const ev::Event& event,
                         core::ProtocolContext&) override {
    // GOSSIP1(p,k): deterministic relaying close to the origin keeps the
    // flood alive through its thin initial phase.
    if (event.msg()->hop_count < gossip_.sure_hops) return true;
    return rng_.bernoulli(gossip_.relay_probability);
  }

 private:
  GossipParams gossip_;
  Rng rng_;
};

}  // namespace

void apply_dymo_gossip_flooding(core::Manetkit& kit, GossipParams gossip) {
  core::ManetProtocolCf* dymo = kit.protocol("dymo");
  MK_ENSURE(dymo != nullptr, "gossip flooding requires deployed dymo");
  MK_ENSURE(gossip.relay_probability > 0.0 && gossip.relay_probability <= 1.0,
            "relay probability must be in (0, 1]");
  if (is_dymo_gossip_flooding(kit)) return;
  // Per-node seed decorrelates relay decisions across the network.
  gossip.seed += kit.self();
  dymo->replace_handler("ReHandler", std::make_unique<GossipReHandler>(gossip));
}

void remove_dymo_gossip_flooding(core::Manetkit& kit) {
  core::ManetProtocolCf* dymo = kit.protocol("dymo");
  MK_ENSURE(dymo != nullptr, "dymo not deployed");
  if (!is_dymo_gossip_flooding(kit)) return;
  dymo->replace_handler("ReHandler", std::make_unique<ReHandler>());
}

bool is_dymo_gossip_flooding(core::Manetkit& kit) {
  core::ManetProtocolCf* dymo = kit.protocol("dymo");
  if (dymo == nullptr) return false;
  auto* h = dymo->control().find("ReHandler");
  return dynamic_cast<GossipReHandler*>(h) != nullptr;
}

}  // namespace mk::proto
