// Optimised-flooding DYMO variant (§5.2): route-discovery floods are relayed
// only by multipoint relays, curbing broadcast overhead in dense networks at
// the cost of the MPR CF's extra state.
//
// Per the paper, the Neighbour Detection CF is simply *replaced* by the MPR
// ManetProtocol instance (which also provides NHOOD_CHANGE); if an OLSR
// deployment already hosts an MPR CF, that instance is shared directly,
// giving a leaner co-deployment.
#pragma once

#include "core/manetkit.hpp"
#include "protocols/dymo/dymo_cf.hpp"

namespace mk::proto {

void apply_dymo_optimized_flooding(core::Manetkit& kit);
void remove_dymo_optimized_flooding(core::Manetkit& kit);
bool is_dymo_optimized_flooding(core::Manetkit& kit);

}  // namespace mk::proto
