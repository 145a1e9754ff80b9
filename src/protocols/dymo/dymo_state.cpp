#include "protocols/dymo/dymo_state.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "util/bytebuffer.hpp"
#include "util/serial.hpp"

namespace mk::proto {

DymoState::DymoState() : ReactiveTable(kMaxTries) {}

RouteUpdate DymoState::update_route(net::Addr dest, std::uint16_t seq,
                                    net::Addr next_hop, std::uint8_t hops,
                                    TimePoint now, Duration lifetime) {
  auto it = position(routes_, dest);
  if (it != routes_.end() && it->first == dest) {
    DymoRoute& r = it->second;
    bool improves = serial_newer(seq, r.seqnum) ||
                    (seq == r.seqnum && !r.valid) ||
                    (seq == r.seqnum && r.active() != nullptr &&
                     hops < r.active()->hops);
    if (!improves) {
      // Same info; still refresh the lifetime if it matches the active path.
      if (seq == r.seqnum && r.valid && r.active() != nullptr &&
          r.active()->next_hop == next_hop) {
        r.expires = now + lifetime;
      }
      return {false, r.expires};
    }
  } else {
    it = routes_.emplace(it, dest, DymoRoute{});
  }
  DymoRoute& r = it->second;
  r.dest = dest;
  r.seqnum = seq;
  r.valid = true;
  r.expires = now + lifetime;
  r.paths = DymoPaths{};
  r.paths.push_back(DymoPath{next_hop, hops});
  return {true, r.expires};
}

bool DymoState::check_duplicate(std::uint64_t key, TimePoint now) {
  auto [seen, inserted] = duplicates_.emplace(key);
  *seen = now;
  return !inserted;
}

std::vector<std::uint64_t> DymoState::duplicate_entries() const {
  std::vector<std::uint64_t> out;
  out.reserve(duplicates_.size());
  duplicates_.for_each([&](std::uint64_t key, TimePoint) { out.push_back(key); });
  std::sort(out.begin(), out.end());
  return out;
}

// Codec layout (version 1, big-endian):
//   u8 version | u16 own_seq
//   u16 n_routes | per route: u32 dest | u16 seqnum | u8 valid | i64 expires_us
//                            | u8 n_paths | per path: u32 next_hop | u8 hops
//   u16 n_duplicates | per RREQ tuple: u32 origin | u16 seq | i64 seen_us
namespace {
constexpr std::uint8_t kDymoCodecVersion = 1;
}

void DymoState::encode_state(std::vector<std::uint8_t>& out) const {
  ByteWriter w(std::move(out));
  w.put_u8(kDymoCodecVersion);
  w.put_u16(own_seq_);
  w.put_u16(static_cast<std::uint16_t>(routes_.size()));
  for (const auto& [dest, r] : routes_) {
    w.put_u32(dest);
    w.put_u16(r.seqnum);
    w.put_u8(r.valid ? 1 : 0);
    w.put_u64(static_cast<std::uint64_t>(r.expires.us));
    w.put_u8(static_cast<std::uint8_t>(r.paths.size()));
    for (const DymoPath& p : r.paths) {
      w.put_u32(p.next_hop);
      w.put_u8(p.hops);
    }
  }
  // Keys order by kind first: the RREQ tuples end at the first RERR key.
  const std::vector<std::uint64_t> keys = duplicate_entries();
  auto rreq_end = std::lower_bound(keys.begin(), keys.end(),
                                   dymo_dup_key(DupKind::kRerr, 0, 0));
  w.put_u16(static_cast<std::uint16_t>(std::distance(keys.begin(), rreq_end)));
  for (auto it = keys.begin(); it != rreq_end; ++it) {
    w.put_u32(static_cast<std::uint32_t>(*it >> 16));
    w.put_u16(static_cast<std::uint16_t>(*it));
    w.put_u64(static_cast<std::uint64_t>(duplicates_.find(*it)->us));
  }
  out = w.take();
}

bool DymoState::decode_state(std::span<const std::uint8_t> blob) {
  ByteReader r(blob);
  try {
    if (r.get_u8() != kDymoCodecVersion) return false;
    reset_state();
    own_seq_ = r.get_u16();
    for (std::uint16_t n = r.get_u16(); n > 0; --n) {
      DymoRoute route;
      route.dest = r.get_u32();
      route.seqnum = r.get_u16();
      route.valid = r.get_u8() != 0;
      route.expires = TimePoint{static_cast<std::int64_t>(r.get_u64())};
      const std::uint8_t paths = r.get_u8();
      if (paths > kDymoMaxPaths) return false;
      for (std::uint8_t i = 0; i < paths; ++i) {
        DymoPath p;
        p.next_hop = r.get_u32();
        p.hops = r.get_u8();
        route.paths.push_back(p);
      }
      entry_for(route.dest) = route;
    }
    for (std::uint16_t n = r.get_u16(); n > 0; --n) {
      net::Addr origin = r.get_u32();
      std::uint16_t seq = r.get_u16();
      TimePoint seen{static_cast<std::int64_t>(r.get_u64())};
      *duplicates_.emplace(dymo_dup_key(DupKind::kRreq, origin, seq)).first =
          seen;
    }
  } catch (const BufferUnderflow&) {
    return false;
  }
  return r.at_end();
}

void DymoState::reset_state() {
  reset_reactive();
  rerr_seq_ = 1;
  routes_.clear();
  duplicates_.clear();
}

std::string DymoState::describe() const {
  std::ostringstream os;
  os << "dymo routes: " << routes_.size() << " pending: " << pending_.size()
     << " seq: " << own_seq_;
  return os.str();
}

MultipathDymoState::MultipathDymoState(const DymoState& base) {
  // State transfer: carry the route table (the other tables are transient).
  routes_ = base.all_routes();
}

bool MultipathDymoState::add_alternate_path(net::Addr dest, net::Addr next_hop,
                                            std::uint8_t hops) {
  DymoRoute* r = mutable_route(dest);
  if (r == nullptr || !r->valid) return false;
  if (r->paths.full()) return false;
  for (const DymoPath& p : r->paths) {
    if (p.next_hop == next_hop) return false;  // not link-disjoint
  }
  r->paths.push_back(DymoPath{next_hop, hops});
  return true;
}

std::optional<DymoPath> MultipathDymoState::fail_over(net::Addr dest) {
  DymoRoute* r = mutable_route(dest);
  if (r == nullptr || r->paths.empty()) return std::nullopt;
  r->paths.pop_front();
  if (r->paths.empty()) {
    r->valid = false;
    return std::nullopt;
  }
  return r->paths.front();
}

std::size_t MultipathDymoState::path_count(net::Addr dest) const {
  auto r = route_to(dest);
  return r.has_value() ? r->paths.size() : 0;
}

}  // namespace mk::proto
