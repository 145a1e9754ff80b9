// Zone-hybrid routing protocol ("zrp") — the paper's future-work
// *hybridisation* demonstrated as a protocol composed almost entirely from
// existing MANETKit components (ZRP-flavoured, zone radius 2):
//
//  * IARP (proactive, intra-zone): the Neighbour Detection CF already
//    maintains the 2-hop zone; a ZoneMaintenance source keeps kernel routes
//    to every zone member permanently installed — in-zone traffic never
//    triggers a discovery.
//  * IERP (reactive, inter-zone): DYMO's routing-element machinery is reused
//    wholesale; the zone twist is a replacement RE handler whose relaying
//    decision short-circuits when the *target lies inside the relay's zone* —
//    the relay answers with a proxy RREP instead of re-flooding, so queries
//    terminate one zone-radius early (the bordercast-termination effect).
//
// This is the hybrid analogue of the fish-eye/multipath variants: three
// plug-in substitutions over the DYMO composition, no new wire format.
#pragma once

#include <memory>

#include "core/manet_protocol.hpp"
#include "core/manetkit.hpp"
#include "protocols/dymo/dymo_cf.hpp"

namespace mk::proto {

/// Refresh period for proactively installed zone routes (IERP uses DYMO's
/// timing).
inline constexpr Duration kZrpZoneRefresh = sec(1);

std::unique_ptr<core::ManetProtocolCf> build_zrp_cf(core::Manetkit& kit);

/// Registers "zrp" (layer 20, category "reactive" — it owns the NO_ROUTE
/// path like any on-demand protocol).
void register_zrp(core::Manetkit& kit);

}  // namespace mk::proto
