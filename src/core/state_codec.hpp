// State serialization for S-element replication (ISSUE 10).
//
// A protocol's S element implements IStateCodec so the replication CF can
// snapshot it into a checkpoint blob that a 1-hop peer stores and — after a
// crash/restart fault — hands back to rehydrate the restarted unit. The
// format is owned by each protocol (a versioned big-endian byte string
// written with ByteWriter and read back with ByteReader); the replication
// layer treats blobs as opaque.
//
// Codec discipline:
//  * encode only *protocol* state (tables, sequence numbers) — never derived
//    artefacts that a restart recomputes (installed kernel routes, cached
//    scratch) and never transient negotiation state (pending discoveries,
//    whose retry timers died with the crashed node);
//  * absolute sim-time deadlines are encoded as-is — every node in a world
//    shares one scheduler clock, so a peer-held deadline is directly
//    meaningful to the restarted node;
//  * iteration must be over ordered containers, so the same state always
//    encodes to the same bytes (checkpoint blobs are journal-digested).
//
// decode_state() must be fuzz-safe: a malformed blob returns false and
// leaves the element in a consistent (possibly emptied) state, exactly like
// the PacketBB parser discipline — replicas arrive off the wire.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "opencom/interface.hpp"

namespace mk::core {

/// Implemented by replication-capable S elements; callers find it with
/// dynamic_cast on the protocol's S element.
struct IStateCodec : oc::Interface {
  /// Writes a self-contained snapshot of this S element into `out`,
  /// replacing its contents.
  virtual void encode_state(std::vector<std::uint8_t>& out) const = 0;

  /// Replaces this element's contents from an encode_state() blob. Returns
  /// false on malformed input (state is left consistent but unspecified).
  virtual bool decode_state(std::span<const std::uint8_t> blob) = 0;

  /// Reverts the element to freshly-constructed contents (the crash model's
  /// cold start: tables emptied, sequence counters reset).
  virtual void reset_state() = 0;
};

}  // namespace mk::core
