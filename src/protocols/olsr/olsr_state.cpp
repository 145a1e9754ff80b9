#include "protocols/olsr/olsr_state.hpp"

#include <algorithm>
#include <sstream>

#include "util/bytebuffer.hpp"
#include "util/serial.hpp"

namespace mk::proto {

OlsrState::OlsrState() : oc::Component("State") {}

bool OlsrState::update_topology(net::Addr origin, std::uint16_t ansn,
                                const std::vector<net::Addr>& advertised,
                                TimePoint now, Duration hold) {
  auto it = topology_.find(origin);
  // RFC 3626 §19: ANSNs compare with wraparound.
  if (it != topology_.end() && serial_newer(it->second.ansn, ansn)) {
    return false;  // stale information
  }
  const bool added = it == topology_.end();
  if (added) it = topology_.try_emplace(origin).first;
  TopologyEntry& entry = it->second;
  entry.ansn = ansn;
  if (added || entry.advertised != advertised) {
    entry.advertised = advertised;
    version_ = core::next_version();
  }
  entry.expires = now + hold;
  return true;
}

std::vector<net::Addr> OlsrState::topology_origins() const {
  std::vector<net::Addr> out;
  out.reserve(topology_.size());
  for (const auto& [origin, e] : topology_) out.push_back(origin);
  return out;
}

std::vector<std::pair<net::Addr, net::Addr>> OlsrState::topology_edges() const {
  std::vector<std::pair<net::Addr, net::Addr>> out;
  for (const auto& [origin, e] : topology_) {
    for (net::Addr d : e.advertised) out.emplace_back(origin, d);
  }
  return out;
}

double OlsrState::energy_of(net::Addr node) const {
  auto it = energy_.find(node);
  return it == energy_.end() ? 1.0 : it->second;
}

// Codec layout (version 1, big-endian):
//   u8 version | u16 msg_seq | u16 ansn
//   u16 n_last_advertised | u32*n
//   u16 n_topology | per origin: u32 origin | u16 ansn | i64 expires_us
//                               | u16 n_advertised | u32*n
namespace {
constexpr std::uint8_t kOlsrCodecVersion = 1;
}

void OlsrState::encode_state(std::vector<std::uint8_t>& out) const {
  ByteWriter w(std::move(out));
  w.put_u8(kOlsrCodecVersion);
  w.put_u16(msg_seq_);
  w.put_u16(ansn_);
  w.put_u16(static_cast<std::uint16_t>(last_advertised_.size()));
  for (net::Addr a : last_advertised_) w.put_u32(a);
  w.put_u16(static_cast<std::uint16_t>(topology_.size()));
  for (const auto& [origin, e] : topology_) {
    w.put_u32(origin);
    w.put_u16(e.ansn);
    w.put_u64(static_cast<std::uint64_t>(e.expires.us));
    w.put_u16(static_cast<std::uint16_t>(e.advertised.size()));
    for (net::Addr a : e.advertised) w.put_u32(a);
  }
  out = w.take();
}

bool OlsrState::decode_state(std::span<const std::uint8_t> blob) {
  ByteReader r(blob);
  try {
    if (r.get_u8() != kOlsrCodecVersion) return false;
    reset_state();
    msg_seq_ = r.get_u16();
    ansn_ = r.get_u16();
    for (std::uint16_t n = r.get_u16(); n > 0; --n) {
      last_advertised_.insert(r.get_u32());
    }
    for (std::uint16_t n = r.get_u16(); n > 0; --n) {
      net::Addr origin = r.get_u32();
      TopologyEntry e;
      e.ansn = r.get_u16();
      e.expires = TimePoint{static_cast<std::int64_t>(r.get_u64())};
      for (std::uint16_t adv = r.get_u16(); adv > 0; --adv) {
        e.advertised.push_back(r.get_u32());
      }
      std::sort(e.advertised.begin(), e.advertised.end());
      e.advertised.erase(
          std::unique(e.advertised.begin(), e.advertised.end()),
          e.advertised.end());
      topology_[origin] = std::move(e);
    }
  } catch (const BufferUnderflow&) {
    return false;
  }
  return r.at_end();
}

void OlsrState::reset_state() {
  topology_.clear();
  msg_seq_ = 1;
  ansn_ = 1;
  last_advertised_.clear();
  installed_.clear();
  energy_.clear();
  own_battery_ = 1.0;
  version_ = core::next_version();
}

std::string OlsrState::describe() const {
  std::ostringstream os;
  os << "topology entries: " << topology_.size() << " ansn: " << ansn_
     << " installed routes: " << installed_.size();
  return os.str();
}

}  // namespace mk::proto
