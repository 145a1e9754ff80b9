// Multipath DYMO variant (§5.2) [Galvez & Ruiz 2007 flavour]: computes
// multiple link-disjoint paths within a single route-discovery attempt,
// trading a little discovery latency for far fewer repeat floods.
//
// Enactment (the paper's recipe — three component replacements):
//  * the S component is replaced with one holding a path *list* per route
//    (state carried over);
//  * the RE handler is replaced: duplicate RREQs/RREPs are no longer
//    systematically discarded but mined for alternative disjoint paths
//    (atomic handler execution makes this safe);
//  * the route-error handler is replaced: on failure it fails over to an
//    alternate path when one exists, and only otherwise sends a RERR.
#pragma once

#include "core/manetkit.hpp"
#include "protocols/dymo/dymo_cf.hpp"

namespace mk::proto {

void apply_multipath_dymo(core::Manetkit& kit);
void remove_multipath_dymo(core::Manetkit& kit);
bool is_multipath_dymo(core::Manetkit& kit);

}  // namespace mk::proto
