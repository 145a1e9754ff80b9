#include "protocols/aodv/aodv_state.hpp"

#include <sstream>

#include "util/serial.hpp"

namespace mk::proto {

AodvState::AodvState() : ReactiveTable("aodv.AodvState", kMaxTries) {}

bool AodvState::update_route(net::Addr dest, std::uint16_t seq, bool seq_valid,
                             net::Addr next_hop, std::uint8_t hops,
                             TimePoint now, Duration lifetime) {
  auto it = routes_.find(dest);
  if (it != routes_.end()) {
    const AodvRoute& r = it->second;
    bool accept = !r.seq_valid ||
                  (seq_valid && serial_newer(seq, r.dest_seq)) ||
                  (seq_valid && seq == r.dest_seq &&
                   (!r.valid || hops < r.hops));
    if (!accept) {
      if (r.valid && r.next_hop == next_hop) {
        it->second.expires = now + lifetime;
      }
      return false;
    }
  }
  AodvRoute r;
  if (it != routes_.end()) r.precursors = it->second.precursors;
  r.dest = dest;
  r.next_hop = next_hop;
  r.dest_seq = seq;
  r.seq_valid = seq_valid;
  r.hops = hops;
  r.valid = true;
  r.expires = now + lifetime;
  routes_[dest] = std::move(r);
  return true;
}

void AodvState::add_precursor(net::Addr dest, net::Addr precursor) {
  if (AodvRoute* r = mutable_route(dest)) r->precursors.insert(precursor);
}

std::optional<TimePoint> AodvState::lapse_route(net::Addr dest,
                                                TimePoint now,
                                                bool& invalidated) {
  invalidated = false;
  auto it = routes_.find(dest);
  if (it == routes_.end()) return std::nullopt;
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
  namespace cc = core::codec;
  cc::put_u8(out, kAodvCodecVersion);
  cc::put_u16(out, own_seq_);
  cc::put_u32(out, rreq_id_);
  cc::put_u16(out, static_cast<std::uint16_t>(routes_.size()));
  for (const auto& [dest, r] : routes_) {
    cc::put_u32(out, dest);
    cc::put_u32(out, r.next_hop);
    cc::put_u16(out, r.dest_seq);
    cc::put_u8(out, r.seq_valid ? 1 : 0);
    cc::put_u8(out, r.hops);
    cc::put_u8(out, r.valid ? 1 : 0);
    cc::put_i64(out, r.expires.us);
    cc::put_u16(out, static_cast<std::uint16_t>(r.precursors.size()));
    for (net::Addr p : r.precursors) cc::put_u32(out, p);
  }
  cc::put_u16(out, static_cast<std::uint16_t>(rreq_seen_.size()));
  for (const auto& [key, seen] : rreq_seen_) {
    cc::put_u32(out, key.first);
    cc::put_u32(out, key.second);
    cc::put_i64(out, seen.us);
  }
}

bool AodvState::decode_state(std::span<const std::uint8_t> blob) {
  namespace cc = core::codec;
  std::size_t off = 0;
  std::uint8_t version = 0;
  if (!cc::get_u8(blob, off, version) || version != kAodvCodecVersion) {
    return false;
  }
  reset_state();
  if (!cc::get_u16(blob, off, own_seq_) || !cc::get_u32(blob, off, rreq_id_)) {
    return false;
  }
  std::uint16_t n_routes = 0;
  if (!cc::get_u16(blob, off, n_routes)) return false;
  for (std::uint16_t i = 0; i < n_routes; ++i) {
    AodvRoute r;
    std::uint32_t dest = 0, next_hop = 0;
    std::uint8_t seq_valid = 0, valid = 0;
    std::int64_t expires_us = 0;
    std::uint16_t n_prec = 0;
    if (!cc::get_u32(blob, off, dest) || !cc::get_u32(blob, off, next_hop) ||
        !cc::get_u16(blob, off, r.dest_seq) ||
        !cc::get_u8(blob, off, seq_valid) || !cc::get_u8(blob, off, r.hops) ||
        !cc::get_u8(blob, off, valid) || !cc::get_i64(blob, off, expires_us) ||
        !cc::get_u16(blob, off, n_prec)) {
      return false;
    }
    r.dest = dest;
    r.next_hop = next_hop;
    r.seq_valid = seq_valid != 0;
    r.valid = valid != 0;
    r.expires = TimePoint{expires_us};
    for (std::uint16_t j = 0; j < n_prec; ++j) {
      std::uint32_t p = 0;
      if (!cc::get_u32(blob, off, p)) return false;
      r.precursors.insert(p);
    }
    routes_[dest] = std::move(r);
  }
  std::uint16_t n_seen = 0;
  if (!cc::get_u16(blob, off, n_seen)) return false;
  for (std::uint16_t i = 0; i < n_seen; ++i) {
    std::uint32_t origin = 0, rreq_id = 0;
    std::int64_t seen_us = 0;
    if (!cc::get_u32(blob, off, origin) || !cc::get_u32(blob, off, rreq_id) ||
        !cc::get_i64(blob, off, seen_us)) {
      return false;
    }
    rreq_seen_[std::make_pair(net::Addr{origin}, rreq_id)] = TimePoint{seen_us};
  }
  return off == blob.size();
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
