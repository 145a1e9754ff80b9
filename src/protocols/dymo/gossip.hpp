// Gossip-flooding DYMO variant — §2's "various epidemic/gossip algorithms
// can also be applied in this context" [Haas, Halpern & Li, GOSSIP1(p,k)]:
// route-request floods are relayed with probability p, except within the
// first k hops (where the flood is still thin and a loss would kill it).
//
// Like fish-eye and optimised flooding, this is a single-handler
// reconfiguration of a running DYMO deployment. It trades a little
// discovery reliability for substantially fewer rebroadcasts in dense
// networks; in sparse networks it should not be applied (every relay is
// essential) — exactly the kind of conditions-dependent trade-off MANETKit
// exists to switch on and off.
#pragma once

#include "core/manetkit.hpp"
#include "protocols/dymo/dymo_cf.hpp"

namespace mk::proto {

struct GossipParams {
  double relay_probability = 0.65;  // p
  std::uint8_t sure_hops = 1;       // k: always relay within k hops of origin
  std::uint64_t seed = 99;
};

void apply_dymo_gossip_flooding(core::Manetkit& kit, GossipParams gossip = {});
void remove_dymo_gossip_flooding(core::Manetkit& kit);
bool is_dymo_gossip_flooding(core::Manetkit& kit);

}  // namespace mk::proto
