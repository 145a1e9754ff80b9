// The MPR (Multipoint Relaying) CF (§5.1): link sensing, relay selection and
// an optimised flooding service. OLSR stacks on it; the optimised-flooding
// DYMO variant shares the *same instance* (a headline resource-sharing win in
// Table 2).
//
// Event tuple:
//   required = {HELLO_IN, POWER_STATUS, TC_IN, TC_OUT, <flood types>...}
//   provided = {HELLO_OUT, NHOOD_CHANGE, MPR_CHANGE, TC_OUT, <flood>...}
//
// TC_OUT appears in both sets: the MPR CF is an *interposer* on the flooding
// path — protocols emit flood messages, the MPR CF stamps the duplicate set
// and relays, and retransmission of received floods happens only when the
// previous hop selected this node as one of its MPRs.
#pragma once

#include <memory>
#include <string>

#include "core/manet_protocol.hpp"
#include "core/manetkit.hpp"
#include "protocols/mpr/mpr_calculator.hpp"
#include "protocols/mpr/mpr_state.hpp"

namespace mk::proto {

/// Builds the MPR CF with the RFC 3626 timing of protocols/timing.hpp.
std::unique_ptr<core::ManetProtocolCf> build_mpr_cf(core::Manetkit& kit);

/// Registers the "mpr" builder (layer 10).
void register_mpr(core::Manetkit& kit);

/// Adds RFC 3626 §14 link hysteresis to `kit`'s deployed MPR CF: inserts the
/// Hysteresis plug-in, which then gates link establishment, and its
/// per-HELLO-interval decay tick. Every link starts pending and must prove
/// itself again. Idempotent.
void apply_mpr_hysteresis(core::Manetkit& kit);

/// Extends a deployed MPR CF's flooding service to a further message family
/// (e.g. DYMO's "RM"): registers the PacketBB message type, widens the flood
/// handlers' subscriptions and updates the event tuple (triggering rebind).
void mpr_add_flood_type(core::Manetkit& kit, core::ManetProtocolCf& mpr_cf,
                        const std::string& base, std::uint8_t msg_type);

/// S element access.
MprState* mpr_state(core::ManetProtocolCf& cf);

/// Recomputes the MPR set via the CF's current IMprCalculator plug-in and
/// emits MPR_CHANGE if it changed. Exposed for variant code and tests.
void recompute_mprs(core::ManetProtocolCf& cf);

}  // namespace mk::proto
