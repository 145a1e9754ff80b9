// Link-layer frames exchanged over the simulated medium.
//
// Control frames carry a serialized PacketBB packet (or a baseline's own
// codec output) — this is the "UDP port 269/698" traffic of a real
// deployment. Data frames model application packets routed hop-by-hop via
// each node's kernel forwarding table; since both ends live in the same
// process the payload stays structured.
//
// The payload is a *shared immutable* buffer: a broadcast to k neighbours
// parks one copy of the Frame struct, with its k receivers, under a single
// scheduler event (a fault verdict that delays or duplicates a receiver
// takes one copy per delivery instead), and every copy points at the single
// serialized buffer the sender produced (O(1) payload allocations per
// transmission instead of O(k)). Receivers only ever read it, and they
// decode it once between them: the first receiver's System CF parses the
// buffer through the medium's pbb::DecodeMemo, keyed by the buffer's
// identity, and the others share the resulting immutable messages.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/address.hpp"
#include "util/time.hpp"

namespace mk::net {

enum class FrameKind : std::uint8_t { kControl, kData };

/// Serialized control payload bytes.
using PayloadBuffer = std::vector<std::uint8_t>;
/// Shared immutable handle to a payload; one allocation per transmission,
/// shared by every in-flight copy of the frame.
using PayloadPtr = std::shared_ptr<const PayloadBuffer>;

inline PayloadPtr make_payload(PayloadBuffer bytes) {
  return std::make_shared<const PayloadBuffer>(std::move(bytes));
}

/// End-to-end header of a data packet (IP-header analogue).
struct DataHeader {
  Addr src = kNoAddr;
  Addr dst = kNoAddr;
  std::uint32_t seq = 0;
  std::uint8_t ttl = 64;
  std::uint16_t payload_size = 0;  // bytes of simulated payload
  TimePoint sent_at{};             // stamped at origination, for latency stats
};

struct Frame {
  Addr tx = kNoAddr;        // transmitting interface
  Addr rx = kBroadcast;     // link-level destination (kBroadcast for flooding)
  FrameKind kind = FrameKind::kControl;
  PayloadPtr payload;       // control: serialized packet (shared, immutable)
  DataHeader data;          // valid when kind == kData

  std::span<const std::uint8_t> payload_view() const {
    return payload != nullptr ? std::span<const std::uint8_t>(*payload)
                              : std::span<const std::uint8_t>{};
  }
  std::size_t payload_size() const {
    return payload != nullptr ? payload->size() : 0;
  }

  /// Approximate on-air size, used for overhead accounting and per-byte
  /// transmission delay (matches what a real trace would count).
  std::size_t wire_size() const {
    constexpr std::size_t kMacHeader = 34;  // 802.11-ish MAC+LLC overhead
    return kMacHeader +
           (kind == FrameKind::kControl
                ? payload_size() + 28           // IP+UDP headers
                : data.payload_size + 20u);     // IP header
  }
};

}  // namespace mk::net
