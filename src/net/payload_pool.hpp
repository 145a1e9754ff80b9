// Recycled frame payload buffers.
//
// A control transmission serializes into a PayloadBuffer that is then shared
// immutably by every in-flight copy of the frame (see frame.hpp). Acquiring
// the buffer here instead of make_shared recycles both the byte buffer
// (capacity preserved across tenants, serialize_into style) and the
// shared_ptr control block, so a warm transmission allocates nothing. Under
// mem::MemBackend::kHeap this degenerates to a fresh heap buffer (the
// conformance oracle).
#pragma once

#include <cstdint>
#include <memory>

#include "net/frame.hpp"

namespace mk::net {

/// An empty (size 0, warm capacity) payload buffer. Fill it, then hand it to
/// Frame::payload as a PayloadPtr — the non-const -> const conversion is
/// implicit. The deleter returns the slot to the pool when the last frame
/// copy drops it.
std::shared_ptr<PayloadBuffer> acquire_payload();

}  // namespace mk::net
