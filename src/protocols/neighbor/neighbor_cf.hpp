// The Neighbour Detection CF (§4.3): a generally-useful ManetProtocol
// instance maintaining 1-hop/2-hop neighbourhood information via periodic
// HELLO exchange, notifying upper protocols of link breaks (NHOOD_CHANGE)
// and offering piggybacked dissemination.
//
// Event tuple: <required = {HELLO_IN}, provided = {HELLO_OUT, NHOOD_CHANGE}>.
//
// The sensing mechanism is pluggable: the default is HELLO-based
// (HelloSource + HelloHandler); enable_link_layer_feedback() swaps in a
// component fed by the medium's link notifications instead.
#pragma once

#include <memory>

#include "core/manet_protocol.hpp"
#include "core/manetkit.hpp"
#include "protocols/neighbor/neighbor_state.hpp"

namespace mk::proto {

struct NeighborParams {
  /// Matches the MPR CF's HELLO cadence so the two sensing mechanisms are
  /// interchangeable without changing control-traffic volume.
  Duration hello_interval = sec(2);
  /// Neighbour hold time (RFC-style: 3 × interval).
  Duration hold_time = sec(6);
};

/// Builds the Neighbour Detection CF instance (registered as "neighbor").
std::unique_ptr<core::ManetProtocolCf> build_neighbor_cf(
    core::Manetkit& kit, NeighborParams params = {});

/// Registers the "neighbor" builder with a kit (layer 10).
void register_neighbor(core::Manetkit& kit, NeighborParams params = {});

/// Replaces the HELLO-based sensing of a deployed Neighbour Detection CF
/// with link-layer feedback from the medium (the paper's alternative
/// pluggable mechanism). HELLOs keep flowing (piggybacking still works) but
/// symmetry/loss is driven by the driver callbacks.
void enable_link_layer_feedback(core::Manetkit& kit,
                                core::ManetProtocolCf& neighbor_cf);

/// Fetches the S element interface of a Neighbour Detection (or MPR) CF.
INeighborState* neighbor_state(core::ManetProtocolCf& cf);

/// The same for `kit`'s deployed `unit`, looked up now (so a restarted CF
/// is the live one); null while that CF is not deployed.
INeighborState* neighbor_state(core::Manetkit& kit,
                               const std::string& unit = "neighbor");

}  // namespace mk::proto
