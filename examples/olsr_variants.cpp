// Fine-grained dynamic reconfiguration of a *running* OLSR deployment
// (§5.1): first the fish-eye variant is hot-inserted purely by declarative
// event-tuple rewiring (the FishEye unit requires+provides TC_OUT, so the
// Framework Manager interposes it on the TC path); then the power-aware
// variant replaces components in the MPR and OLSR CFs through the
// architecture meta-model.
//
//   build/examples/olsr_variants
#include <cstdio>

#include "protocols/olsr/fisheye.hpp"
#include "protocols/olsr/olsr_cf.hpp"
#include "protocols/olsr/power_aware.hpp"
#include "testbed/world.hpp"

namespace {

void show_composition(mk::core::ManetProtocolCf& cf) {
  std::printf("  %s CF members:", cf.unit_name().c_str());
  for (auto id : cf.members()) {
    std::printf(" %s", cf.member(id)->name().c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace mk;

  testbed::SimWorld world(7);
  world.linear();
  world.deploy_all("olsr");
  world.run_for(sec(30));
  std::printf("7-node chain, OLSR converged; node 0 routes: %zu\n\n",
              world.node(0).kernel_table().size());

  // --- variant 1: fish-eye ---------------------------------------------------
  std::printf("inserting fish-eye on node 3 (TTL pattern 2/5/255)...\n");
  auto* fisheye = proto::apply_fisheye(world.kit(3));
  std::printf("  interposer unit '%s' deployed; tuple = <{TC_OUT},{TC_OUT}>\n",
              fisheye->unit_name().c_str());
  world.run_for(sec(30));
  std::printf("  network still converged: node 0 routes: %zu\n",
              world.node(0).kernel_table().size());

  std::printf("removing fish-eye (conditions changed)...\n");
  proto::remove_fisheye(world.kit(3));

  // --- variant 2: power-aware routing ------------------------------------------
  std::printf("\nnode 2's battery is draining (15%%) — applying power-aware "
              "routing everywhere...\n");
  world.node(2).set_battery(0.15);
  for (std::size_t i = 0; i < world.size(); ++i) {
    proto::apply_power_aware(world.kit(i));
  }
  show_composition(*world.kit(0).protocol("olsr"));
  std::printf("  (MprCalculator -> EnergyMprCalculator, HelloHandler -> "
              "power-aware, + ResidualPower)\n");

  world.run_for(sec(40));
  auto* olsr_state = proto::olsr_state(*world.kit(0).protocol("olsr"));
  std::printf("  node 0 sees node 2 residual energy: %.0f%%\n",
              100.0 * olsr_state->energy_of(world.addr(2)));

  std::printf("\nQoS emphasis gone — removing the variant (it now costs "
              "overhead for nothing)...\n");
  for (std::size_t i = 0; i < world.size(); ++i) {
    proto::remove_power_aware(world.kit(i));
  }
  show_composition(*world.kit(0).protocol("olsr"));
  world.run_for(sec(10));
  std::printf("  back to standard OLSR; node 0 routes: %zu\n",
              world.node(0).kernel_table().size());
  return 0;
}
