// The OLSR CF (§5.1, Fig. 5): built as a ManetProtocol stacked on the MPR CF.
// MPR does link sensing and relay selection; OLSR garners topology via TC
// flooding (using MPR's forwarding service) and computes routes.
//
// Event tuple: <required = {TC_IN, NHOOD_CHANGE, MPR_CHANGE},
//               provided = {TC_OUT}>.
#pragma once

#include <memory>

#include "core/manet_protocol.hpp"
#include "core/manetkit.hpp"
#include "protocols/olsr/olsr_state.hpp"

namespace mk::proto {

/// Builds the OLSR CF: TCs every kTcInterval, topology held for
/// kTopHoldTime. Deploys the "mpr" CF first if necessary (the two are
/// separate ManetProtocol instances, shareable with other protocols).
std::unique_ptr<core::ManetProtocolCf> build_olsr_cf(core::Manetkit& kit);

/// Registers "olsr" (layer 20, category "proactive"); also registers "mpr"
/// if absent.
void register_olsr(core::Manetkit& kit);

OlsrState* olsr_state(core::ManetProtocolCf& cf);

/// Triggers an immediate route recomputation via the CF's IRouteCalculator.
void olsr_recompute_routes(core::ManetProtocolCf& cf);

/// TC message codec (exposed for tests and the monolithic baseline parity
/// checks).
namespace tc {
pbb::Message build(net::Addr self, std::uint16_t seq, std::uint16_t ansn,
                   const std::set<net::Addr>& advertised);
}

}  // namespace mk::proto
