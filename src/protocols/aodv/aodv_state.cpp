#include "protocols/aodv/aodv_state.hpp"

#include <sstream>

#include "util/bytebuffer.hpp"
#include "util/serial.hpp"

namespace mk::proto {

AodvState::AodvState() : ReactiveTable(kMaxTries) {}

RouteUpdate AodvState::update_route(net::Addr dest, std::uint16_t seq,
                                    bool seq_valid, net::Addr next_hop,
                                    std::uint8_t hops, TimePoint now,
                                    Duration lifetime) {
  auto it = position(routes_, dest);
  if (it != routes_.end() && it->first == dest) {
    AodvRoute& r = it->second;
    bool accept = !r.seq_valid ||
                  (seq_valid && serial_newer(seq, r.dest_seq)) ||
                  (seq_valid && seq == r.dest_seq &&
                   (!r.valid || hops < r.hops));
    if (!accept) {
      if (r.valid && r.next_hop == next_hop) r.expires = now + lifetime;
      return {false, r.expires};
    }
  } else {
    it = routes_.emplace(it, dest, AodvRoute{});
  }
  AodvRoute& r = it->second;
  r.dest = dest;
  r.next_hop = next_hop;
  r.dest_seq = seq;
  r.seq_valid = seq_valid;
  r.hops = hops;
  r.valid = true;
  r.expires = now + lifetime;
  return {true, r.expires};
}

void AodvState::add_precursor(net::Addr dest, net::Addr precursor) {
  if (AodvRoute* r = mutable_route(dest)) r->precursors.insert(precursor);
}

std::optional<TimePoint> AodvState::lapse_route(net::Addr dest,
                                                TimePoint now,
                                                bool& invalidated) {
  invalidated = false;
  auto it = position(routes_, dest);
  if (it == routes_.end() || it->first != dest) return std::nullopt;
  AodvRoute& r = it->second;
  if (r.expires > now) return r.expires;  // deadline moved; chase it
  if (r.valid) {
    // Phase 1: stop using it, keep the seqnum memory for DELETE_PERIOD.
    r.invalidate();
    r.expires = now + kAodvDeletePeriod;
    invalidated = true;
    return r.expires;
  }
  routes_.erase(it);
  return std::nullopt;
}

bool AodvState::check_rreq_seen(net::Addr origin, std::uint32_t rreq_id,
                                TimePoint now) {
  auto [it, inserted] = rreq_seen_.emplace(std::make_pair(origin, rreq_id), now);
  if (!inserted) {
    it->second = now;
    return true;
  }
  return false;
}

bool AodvState::drop_rreq_seen(net::Addr origin, std::uint32_t rreq_id_low24) {
  auto it = rreq_seen_.lower_bound(std::make_pair(origin, std::uint32_t{0}));
  for (; it != rreq_seen_.end() && it->first.first == origin; ++it) {
    if ((it->first.second & 0xFFFFFF) == rreq_id_low24) {
      rreq_seen_.erase(it);
      return true;
    }
  }
  return false;
}

std::vector<std::pair<net::Addr, std::uint32_t>> AodvState::rreq_seen_entries()
    const {
  std::vector<std::pair<net::Addr, std::uint32_t>> out;
  out.reserve(rreq_seen_.size());
  for (const auto& [key, _] : rreq_seen_) out.push_back(key);
  return out;
}

// Codec layout (version 1, big-endian):
//   u8 version | u16 own_seq | u32 rreq_id
//   u16 n_routes | per route: u32 dest | u32 next_hop | u16 dest_seq
//                            | u8 seq_valid | u8 hops | u8 valid
//                            | i64 expires_us | u16 n_precursors | u32*n
//   u16 n_rreq_seen | per tuple: u32 origin | u32 rreq_id | i64 seen_us
namespace {
constexpr std::uint8_t kAodvCodecVersion = 1;
}

void AodvState::encode_state(std::vector<std::uint8_t>& out) const {
  ByteWriter w(std::move(out));
  w.put_u8(kAodvCodecVersion);
  w.put_u16(own_seq_);
  w.put_u32(rreq_id_);
  w.put_u16(static_cast<std::uint16_t>(routes_.size()));
  for (const auto& [dest, r] : routes_) {
    w.put_u32(dest);
    w.put_u32(r.next_hop);
    w.put_u16(r.dest_seq);
    w.put_u8(r.seq_valid ? 1 : 0);
    w.put_u8(r.hops);
    w.put_u8(r.valid ? 1 : 0);
    w.put_u64(static_cast<std::uint64_t>(r.expires.us));
    w.put_u16(static_cast<std::uint16_t>(r.precursors.size()));
    for (net::Addr p : r.precursors) w.put_u32(p);
  }
  w.put_u16(static_cast<std::uint16_t>(rreq_seen_.size()));
  for (const auto& [key, seen] : rreq_seen_) {
    w.put_u32(key.first);
    w.put_u32(key.second);
    w.put_u64(static_cast<std::uint64_t>(seen.us));
  }
  out = w.take();
}

bool AodvState::decode_state(std::span<const std::uint8_t> blob) {
  ByteReader r(blob);
  try {
    if (r.get_u8() != kAodvCodecVersion) return false;
    reset_state();
    own_seq_ = r.get_u16();
    rreq_id_ = r.get_u32();
    for (std::uint16_t n = r.get_u16(); n > 0; --n) {
      AodvRoute route;
      route.dest = r.get_u32();
      route.next_hop = r.get_u32();
      route.dest_seq = r.get_u16();
      route.seq_valid = r.get_u8() != 0;
      route.hops = r.get_u8();
      route.valid = r.get_u8() != 0;
      route.expires = TimePoint{static_cast<std::int64_t>(r.get_u64())};
      for (std::uint16_t prec = r.get_u16(); prec > 0; --prec) {
        route.precursors.insert(r.get_u32());
      }
      entry_for(route.dest) = std::move(route);
    }
    for (std::uint16_t n = r.get_u16(); n > 0; --n) {
      net::Addr origin = r.get_u32();
      std::uint32_t rreq_id = r.get_u32();
      TimePoint seen{static_cast<std::int64_t>(r.get_u64())};
      rreq_seen_[std::make_pair(origin, rreq_id)] = seen;
    }
  } catch (const BufferUnderflow&) {
    return false;
  }
  return r.at_end();
}

void AodvState::reset_state() {
  reset_reactive();
  routes_.clear();
  rreq_id_ = 0;
  rreq_seen_.clear();
}

std::string AodvState::describe() const {
  std::ostringstream os;
  os << "aodv routes: " << routes_.size() << " seq: " << own_seq_
     << " rreq-id: " << rreq_id_;
  return os.str();
}

}  // namespace mk::proto
