#include "packetbb/message_pool.hpp"

#include "util/mem.hpp"

namespace mk::pbb {

namespace {

/// Resets the scalar shell to default-constructed values. The tlvs and
/// addr_blocks vectors are left stale-warm on purpose.
void reset_shell(Message& m) {
  m.type = 0;
  m.originator.reset();
  m.has_hops = false;
  m.hop_limit = 0;
  m.hop_count = 0;
  m.seqnum.reset();
}

/// Poisons the shell so a stale handle reads 0xA5 garbage, not recycled
/// protocol state.
void poison_shell(Message& m) {
  m.type = mem::kPoisonByte;
  m.originator.reset();
  m.has_hops = false;
  m.hop_limit = mem::kPoisonByte;
  m.hop_count = mem::kPoisonByte;
  m.seqnum.reset();
}

}  // namespace

std::shared_ptr<Message> acquire_message() {
  static mem::Pool<Message> pool("pbb.message", reset_shell, poison_shell);
  return pool.acquire();
}

const Result<bool>& DecodeMemo::decode(const Payload& payload) {
  if (payload != payload_ || payload == nullptr) {
    payload_ = payload;
    status_ = parse_shared(payload != nullptr
                               ? std::span<const std::uint8_t>(*payload)
                               : std::span<const std::uint8_t>{},
                           packet_);
  }
  return status_;
}

}  // namespace mk::pbb
