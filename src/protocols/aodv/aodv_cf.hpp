// The AODV CF — the protocol the paper's original (Java) MANETKit
// proof-of-concept implemented [WWASN 2008]. RFC 3561 core: expanding
// route discovery with RREQ-IDs and destination sequence numbers, unicast
// RREP along the reverse route, precursor-aware RERR, plus the paper's
// §4.3 example of piggybacking routing-table entries on the Neighbour
// Detection CF's HELLOs so neighbours learn routes for free.
//
// Event tuple:
//   required = {AODV_IN, NO_ROUTE, ROUTE_UPDATE, SEND_ROUTE_ERR,
//               NHOOD_CHANGE}   (NO_ROUTE exclusively)
//   provided = {AODV_OUT, ROUTE_FOUND}
//
// All three AODV message kinds (RREQ / RREP / RERR) flow through the single
// AODV_IN/AODV_OUT pair, demultiplexed by PacketBB message type inside the
// handlers — demonstrating that the framework does not force one event type
// per message kind.
#pragma once

#include <memory>

#include "core/manet_protocol.hpp"
#include "core/manetkit.hpp"
#include "core/soft_state.hpp"
#include "protocols/aodv/aodv_state.hpp"

namespace mk::proto {

/// RFC 3561 §10 ACTIVE_ROUTE_TIMEOUT: lifetime of a learned or used route.
inline constexpr Duration kAodvActiveRouteTimeout = sec(3);
/// Backoff before a discovery's first retry (doubled after).
inline constexpr Duration kAodvRreqWait = sec(1);
/// PATH_DISCOVERY_TIME: how long an (originator, RREQ ID) pair is remembered.
inline constexpr Duration kAodvPathDiscoveryTime = sec(6);
/// NET_DIAMETER: the hop limit of RREQs and RREPs.
inline constexpr std::uint8_t kAodvNetDiameter = 35;

/// Soft-state set ids of the AODV CF beyond the reactive_sets, fixed by
/// definition order in build_aodv_cf.
namespace aodv_sets {
inline constexpr core::SoftExpiry::SetId kRreqId = 2;
}  // namespace aodv_sets

/// Packs an RREQ duplicate-cache tuple into SoftExpiry's 56-bit key space.
/// The rreq id is a monotonic per-node counter, so its low 24 bits cannot
/// collide within kAodvPathDiscoveryTime.
inline std::uint64_t aodv_rreq_key(net::Addr origin, std::uint32_t rreq_id) {
  return (static_cast<std::uint64_t>(origin) << 24) | (rreq_id & 0xFFFFFF);
}

std::unique_ptr<core::ManetProtocolCf> build_aodv_cf(core::Manetkit& kit);

/// Registers "aodv" (layer 20, category "reactive").
void register_aodv(core::Manetkit& kit);

AodvState* aodv_state(core::ManetProtocolCf& cf);

}  // namespace mk::proto
