#include "protocols/dymo/opt_flood.hpp"

#include "protocols/mpr/mpr_cf.hpp"
#include "util/assert.hpp"

namespace mk::proto {

namespace {

/// RE handler whose RREQ relaying decision is delegated to Multipoint
/// Relaying: only relay floods from neighbours that selected us as MPR.
class OptFloodReHandler final : public ReHandler {
 public:
  explicit OptFloodReHandler(core::Manetkit& kit) : mpr_(kit, "mpr") {}

 protected:
  bool should_relay_rreq(const ev::Event& event,
                         core::ProtocolContext&) override {
    MprState* st = mpr_.get();
    return st == nullptr || st->is_mpr_selector(event.from);
  }

 private:
  core::StateRef<MprState> mpr_;
};

}  // namespace

void apply_dymo_optimized_flooding(core::Manetkit& kit) {
  core::ManetProtocolCf* dymo = kit.protocol("dymo");
  MK_ENSURE(dymo != nullptr, "optimised flooding requires deployed dymo");
  if (is_dymo_optimized_flooding(kit)) return;

  if (!kit.has_builder("mpr")) register_mpr(kit);
  kit.deploy("mpr");  // shared if OLSR has one

  // MPR subsumes the Neighbour Detection CF's role (it also provides
  // NHOOD_CHANGE), so the latter is replaced by it.
  if (kit.is_deployed("neighbor") && !kit.is_deployed("aodv")) {
    kit.undeploy("neighbor");
  }

  dymo->replace_handler("ReHandler", std::make_unique<OptFloodReHandler>(kit));
}

void remove_dymo_optimized_flooding(core::Manetkit& kit) {
  core::ManetProtocolCf* dymo = kit.protocol("dymo");
  MK_ENSURE(dymo != nullptr, "dymo not deployed");
  if (!is_dymo_optimized_flooding(kit)) return;

  kit.deploy("neighbor");
  dymo->replace_handler("ReHandler", std::make_unique<ReHandler>());
  // The MPR CF stays if OLSR shares it; undeploy only when it would idle.
  if (!kit.is_deployed("olsr") && kit.is_deployed("mpr")) {
    kit.undeploy("mpr");
  }
}

bool is_dymo_optimized_flooding(core::Manetkit& kit) {
  core::ManetProtocolCf* dymo = kit.protocol("dymo");
  if (dymo == nullptr) return false;
  auto* h = dymo->control().find("ReHandler");
  return dynamic_cast<OptFloodReHandler*>(h) != nullptr;
}

}  // namespace mk::proto
