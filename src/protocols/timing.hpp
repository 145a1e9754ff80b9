// Protocol constants shared by the MANETKit CFs and the monolithic baselines.
//
// Table 1 compares each MANETKit protocol with a monolith running the same
// RFC core under identical intervals and hold times. Both sides read the
// values below, so that rule holds by construction: there is one definition
// per value. Constants used by one protocol only live in that protocol's
// header. Header-only, so mk_baselines reads it without linking mk_proto.
#pragma once

#include <cstdint>

#include "util/time.hpp"

namespace mk::proto {

// -- OLSR, RFC 3626 §18: the Neighbour Detection, MPR and OLSR CFs, and olsrd.
/// HELLO_INTERVAL. The Neighbour Detection CF uses the MPR CF's cadence, so
/// the two sensing mechanisms are interchangeable at equal control traffic.
inline constexpr Duration kHelloInterval = sec(2);
/// NEIGHB_HOLD_TIME (3 x HELLO_INTERVAL): link and MPR-selector tuples.
inline constexpr Duration kNeighbHoldTime = sec(6);
/// TC_INTERVAL.
inline constexpr Duration kTcInterval = sec(5);
/// TOP_HOLD_TIME (3 x TC_INTERVAL).
inline constexpr Duration kTopHoldTime = sec(15);
/// DUP_HOLD_TIME: the flooding duplicate set.
inline constexpr Duration kDupHoldTime = sec(30);

// -- DYMO (draft-ietf-manet-dymo): the DYMO CF and DYMOUM.
/// ROUTE_TIMEOUT: lifetime of a learned or used route.
inline constexpr Duration kDymoRouteTimeout = sec(5);
/// RREQ_WAIT_TIME: backoff before a discovery's first retry (doubled after).
inline constexpr Duration kDymoRreqWaitTime = sec(1);
/// Holding time of the RM/RERR duplicate set.
inline constexpr Duration kDymoDupHoldTime = sec(5);
/// MSG_HOPLIMIT of RREQs and RREPs.
inline constexpr std::uint8_t kDymoMsgHopLimit = 10;
/// RREQ_TRIES: discovery attempts before giving up.
inline constexpr std::uint8_t kDymoRreqTries = 3;
/// Hop limit of the RERRs a node originates.
inline constexpr std::uint8_t kDymoRerrHopLimit = 3;

}  // namespace mk::proto
