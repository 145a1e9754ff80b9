#include "protocols/olsr/olsr_state.hpp"

#include <sstream>

#include "util/serial.hpp"

namespace mk::proto {

OlsrState::OlsrState() : oc::Component("olsr.OlsrState") {
  set_instance_name("State");
  provide("IOlsrState", static_cast<IOlsrState*>(this));
  provide("IState", static_cast<core::IState*>(this));
  provide("IStateCodec", static_cast<core::IStateCodec*>(this));
}

bool OlsrState::update_topology(net::Addr origin, std::uint16_t ansn,
                                const std::set<net::Addr>& advertised,
                                TimePoint now, Duration hold) {
  auto it = topology_.find(origin);
  // RFC 3626 §19: ANSNs compare with wraparound.
  if (it != topology_.end() && serial_newer(it->second.ansn, ansn)) {
    return false;  // stale information
  }
  TopologyEntry entry;
  entry.ansn = ansn;
  entry.advertised = advertised;
  entry.expires = now + hold;
  topology_[origin] = std::move(entry);
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
  append_topology_edges(out);
  return out;
}

void OlsrState::append_topology_edges(
    std::vector<std::pair<net::Addr, net::Addr>>& out) const {
  for (const auto& [origin, e] : topology_) {
    for (net::Addr d : e.advertised) out.emplace_back(origin, d);
  }
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
  namespace cc = core::codec;
  cc::put_u8(out, kOlsrCodecVersion);
  cc::put_u16(out, msg_seq_);
  cc::put_u16(out, ansn_);
  cc::put_u16(out, static_cast<std::uint16_t>(last_advertised_.size()));
  for (net::Addr a : last_advertised_) cc::put_u32(out, a);
  cc::put_u16(out, static_cast<std::uint16_t>(topology_.size()));
  for (const auto& [origin, e] : topology_) {
    cc::put_u32(out, origin);
    cc::put_u16(out, e.ansn);
    cc::put_i64(out, e.expires.us);
    cc::put_u16(out, static_cast<std::uint16_t>(e.advertised.size()));
    for (net::Addr a : e.advertised) cc::put_u32(out, a);
  }
}

bool OlsrState::decode_state(std::span<const std::uint8_t> blob) {
  namespace cc = core::codec;
  std::size_t off = 0;
  std::uint8_t version = 0;
  if (!cc::get_u8(blob, off, version) || version != kOlsrCodecVersion) {
    return false;
  }
  reset_state();
  if (!cc::get_u16(blob, off, msg_seq_) || !cc::get_u16(blob, off, ansn_)) {
    return false;
  }
  std::uint16_t n_adv = 0;
  if (!cc::get_u16(blob, off, n_adv)) return false;
  for (std::uint16_t i = 0; i < n_adv; ++i) {
    std::uint32_t a = 0;
    if (!cc::get_u32(blob, off, a)) return false;
    last_advertised_.insert(a);
  }
  std::uint16_t n_topo = 0;
  if (!cc::get_u16(blob, off, n_topo)) return false;
  for (std::uint16_t i = 0; i < n_topo; ++i) {
    std::uint32_t origin = 0;
    TopologyEntry e;
    std::int64_t expires_us = 0;
    std::uint16_t n = 0;
    if (!cc::get_u32(blob, off, origin) || !cc::get_u16(blob, off, e.ansn) ||
        !cc::get_i64(blob, off, expires_us) || !cc::get_u16(blob, off, n)) {
      return false;
    }
    e.expires = TimePoint{expires_us};
    for (std::uint16_t j = 0; j < n; ++j) {
      std::uint32_t a = 0;
      if (!cc::get_u32(blob, off, a)) return false;
      e.advertised.insert(a);
    }
    topology_[origin] = std::move(e);
  }
  return off == blob.size();
}

void OlsrState::reset_state() {
  topology_.clear();
  msg_seq_ = 1;
  ansn_ = 1;
  last_advertised_.clear();
  installed_.clear();
  energy_.clear();
  own_battery_ = 1.0;
}

std::string OlsrState::describe() const {
  std::ostringstream os;
  os << "topology entries: " << topology_.size() << " ansn: " << ansn_
     << " installed routes: " << installed_.size();
  return os.str();
}

}  // namespace mk::proto
