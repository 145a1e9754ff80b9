// Pooled PacketBB message bodies, and the one-decode-per-payload memo.
//
// Every shared message in the event hot path (Event::set_msg, the COW clone
// in Event::mutable_msg, the System CF's RX decode) funnels through
// acquire_message(), which recycles Message slots through a mem::Pool under
// mem::MemBackend::kPool and degenerates to plain make_shared under kHeap
// (the conformance oracle).
//
// Recycled slots follow the serialize_into buffer-recycling discipline: the
// scalar shell is reset (and poisoned 0xA5 while free), but the nested
// tlvs/addr_blocks vectors keep their element count AND capacity from the
// previous tenant — "stale warm". A caller must therefore fully overwrite
// the message (parse_shared, copy-assign, or a *_into builder that
// slot-fills and trims every vector) before the message escapes. Handles are
// plain shared_ptr: the custom deleter returns the slot to the pool and the
// control block itself comes from the mem::BlockAllocator free lists, so a
// warm acquire/release cycle performs zero heap allocations.
//
// A broadcast reaches its k receivers as one shared payload buffer
// (net/frame.hpp). DecodeMemo parses that buffer once, into pooled messages,
// and hands the same immutable handles to every receiver; a receiver that
// wants to edit one goes through Event::mutable_msg(), which clones because
// the memo and the other receivers still share it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "packetbb/packetbb.hpp"
#include "util/result.hpp"

namespace mk::pbb {

/// A recycled (or, under MemBackend::kHeap, freshly heap-allocated) Message.
/// Contents are unspecified — see the stale-warm contract above.
std::shared_ptr<Message> acquire_message();

/// The decode of the last payload asked for, shared by every later request
/// for the same payload. One lives per simulated world (on its medium), not
/// per node and not per thread: the receivers of one broadcast are served
/// back to back, so one entry turns k parses into one.
class DecodeMemo {
 public:
  /// A serialized payload, shared and immutable (net::PayloadPtr).
  using Payload = std::shared_ptr<const std::vector<std::uint8_t>>;

  /// `payload` decoded: parsed on the first call for it, the same packet
  /// (and message handles) on later calls. The key is the buffer's identity,
  /// and the memo holds a reference to it, so a payload pool cannot recycle
  /// the buffer for another payload while its decode is still cached. The
  /// result stays valid until the next call for a different payload.
  const Result<bool>& decode(const Payload& payload);
  const SharedPacket& packet() const { return packet_; }

 private:
  Payload payload_;
  Result<bool> status_{true};
  SharedPacket packet_;
};

}  // namespace mk::pbb
