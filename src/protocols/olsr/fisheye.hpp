// Fish-eye OLSR variant (§5.1): refreshes topology information more
// frequently for nearby nodes than distant ones by modulating the TTL of
// outgoing Topology Change messages [Gerla et al., FSR].
//
// Implemented exactly as the paper describes: a component that both requires
// and provides TC_OUT; inserting it re-evaluates the automatic event-tuple
// bindings, interposing it on the TC_OUT path between the OLSR and MPR CFs.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "core/manet_protocol.hpp"
#include "core/manetkit.hpp"

namespace mk::proto {

/// TTL sequence cycled across successive TCs: most TCs stay local, every
/// third travels the whole network.
inline constexpr std::array<std::uint8_t, 3> kFisheyeTtlPattern = {2, 5, 255};

std::unique_ptr<core::ManetProtocolCf> build_fisheye_cf(core::Manetkit& kit);

/// Deploys the fish-eye interposer (layer 15: between OLSR@20 and MPR@10).
core::ManetProtocolCf* apply_fisheye(core::Manetkit& kit);

/// Removes the variant; TC_OUT flows directly from OLSR to MPR again.
void remove_fisheye(core::Manetkit& kit);

}  // namespace mk::proto
