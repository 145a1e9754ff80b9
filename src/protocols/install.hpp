// One-stop registration of every built-in protocol builder on a MANETKit
// instance.
#pragma once

#include "core/manetkit.hpp"

namespace mk::proto {

/// Registers the neighbor, mpr, olsr, dymo, aodv and zrp builders. Nothing
/// is deployed.
void install_all(core::Manetkit& kit);

}  // namespace mk::proto
