#include "net/payload_pool.hpp"

#include "util/mem.hpp"

namespace mk::net {

namespace {

void clear_bytes(PayloadBuffer& buf) { buf.clear(); }

/// Poisons the bytes in place (capacity survives; size is dropped on the
/// next acquire). A stale reader sees 0xA5 filler, not the last packet.
void poison_bytes(PayloadBuffer& buf) {
  for (auto& b : buf) b = mem::kPoisonByte;
}

}  // namespace

std::shared_ptr<PayloadBuffer> acquire_payload() {
  static mem::Pool<PayloadBuffer> pool("net.payload", clear_bytes,
                                       poison_bytes);
  return pool.acquire();
}

}  // namespace mk::net
