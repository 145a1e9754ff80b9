// Quickstart: bring up a 5-node ad-hoc network, deploy the DYMO routing
// protocol through MANETKit on every node, send application data, and watch
// a route get discovered on demand.
//
//   build/examples/quickstart
#include <cstdio>

#include "protocols/dymo/dymo_cf.hpp"
#include "testbed/world.hpp"

int main() {
  using namespace mk;

  // 1. A simulated wireless world: 5 nodes in a chain (multi-hop emulated by
  //    MAC-level filtering, exactly like the paper's testbed).
  testbed::SimWorld world(5);
  world.linear();
  std::printf("network: 5 nodes, linear chain  %s ... %s\n",
              pbb::addr_to_string(world.addr(0)).c_str(),
              pbb::addr_to_string(world.addr(4)).c_str());

  // 2. Deploy DYMO on every node. Each kit(i) is a per-node MANETKit
  //    instance; deploy() builds the ManetProtocol CF, registers its event
  //    tuple with the Framework Manager and starts it. DYMO's builder pulls
  //    in the Neighbour Detection CF and the System CF's NetLink component
  //    automatically.
  world.deploy_all("dymo");
  std::printf("deployed on node 0: ");
  for (const auto& name : world.kit(0).deployed()) std::printf("%s ", name.c_str());
  std::printf("\n");

  // 3. Let neighbour detection settle (a couple of HELLO periods).
  world.run_for(sec(5));

  // 4. Send data with no route: the kernel packet filter (NetLink) buffers
  //    the packet and raises NO_ROUTE; DYMO floods an RREQ, the target
  //    answers with an RREP, and the buffered packet is re-injected.
  std::printf("\nnode 0 sends 512B to node 4 (no route yet)...\n");
  world.node(0).forwarding().send(world.addr(4), 512);
  world.run_for(sec(3));

  auto route = world.node(0).kernel_table().lookup(world.addr(4));
  if (route) {
    std::printf("route discovered: %s via %s (%u hops)\n",
                pbb::addr_to_string(route->dest).c_str(),
                pbb::addr_to_string(route->next_hop).c_str(), route->metric);
  }
  std::printf("node 4 received %zu packet(s)\n",
              world.node(4).deliveries().size());

  // 5. The S element is introspectable through the CFS pattern.
  auto* dymo = world.kit(0).protocol("dymo");
  auto* state = dynamic_cast<core::IState*>(dymo->state_component());
  std::printf("node 0 DYMO state: %s\n", state->describe().c_str());
  return 0;
}
