// Pooled PacketBB message bodies.
//
// Every shared message in the event hot path (Event::set_msg, the COW clone
// in Event::mutable_msg, the System CF's RX demux) funnels through
// acquire_message(), which recycles Message slots through a mem::Pool under
// mem::MemBackend::kPool and degenerates to plain make_shared under kHeap
// (the conformance oracle).
//
// Recycled slots follow the serialize_into buffer-recycling discipline: the
// scalar shell is reset (and poisoned 0xA5 while free), but the nested
// tlvs/addr_blocks vectors keep their element count AND capacity from the
// previous tenant — "stale warm". A caller must therefore fully overwrite
// the message (copy-assign from a parsed scratch, or a *_into builder that
// slot-fills and trims every vector) before the message escapes. Handles are
// plain shared_ptr: the custom deleter returns the slot to the pool and the
// control block itself comes from the mem::BlockAllocator free lists, so a
// warm acquire/release cycle performs zero heap allocations.
#pragma once

#include <cstddef>
#include <memory>

#include "packetbb/packetbb.hpp"

namespace mk::pbb {

/// A recycled (or, under MemBackend::kHeap, freshly heap-allocated) Message.
/// Contents are unspecified — see the stale-warm contract above.
std::shared_ptr<Message> acquire_message();

}  // namespace mk::pbb
