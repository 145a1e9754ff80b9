// HELLO message build/parse helpers, shared by the Neighbour Detection CF and
// the MPR CF (one of the paper's reused PacketGenerator/PacketParser pieces).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/address.hpp"
#include "packetbb/packetbb.hpp"
#include "protocols/wire.hpp"

namespace mk::proto::hello {

struct Link {
  net::Addr addr = net::kNoAddr;
  wire::LinkCode code = wire::LinkCode::kAsym;
};

/// Overwrites `m` in place as a HELLO: hop_limit 1 (never forwarded), the
/// willingness TLV, and a link list with per-address link-code TLVs. The
/// message may come from a recycled pool slot with stale-warm vectors: every
/// field is written and the TLV / address vectors are refilled element-wise,
/// so their buffers are reused instead of reallocated. The willingness TLV
/// leads the list; callers append piggyback / marker TLVs afterwards.
inline void build_into(pbb::Message& m, net::Addr self, std::uint16_t seq,
                       std::span<const Link> links, std::uint8_t willingness) {
  m.type = wire::kMsgHello;
  m.originator = self;
  m.seqnum = seq;
  m.has_hops = true;
  m.hop_limit = 1;
  m.hop_count = 0;
  if (m.tlvs.empty()) m.tlvs.emplace_back();
  m.tlvs[0].type = wire::kTlvWillingness;
  m.tlvs[0].value.assign(1, willingness);
  if (m.tlvs.size() > 1) m.tlvs.resize(1);
  if (m.addr_blocks.empty()) m.addr_blocks.emplace_back();
  if (m.addr_blocks.size() > 1) m.addr_blocks.resize(1);
  pbb::AddressBlock& block = m.addr_blocks[0];
  block.addrs.clear();
  std::size_t nt = 0;
  for (const Link& l : links) {
    auto idx = static_cast<std::uint8_t>(block.addrs.size());
    block.addrs.push_back(l.addr);
    if (nt == block.tlvs.size()) block.tlvs.emplace_back();
    pbb::AddressTlv& t = block.tlvs[nt++];
    t.type = wire::kAtlvLinkCode;
    t.index_start = idx;
    t.index_stop = idx;
    t.value.assign(1, static_cast<std::uint8_t>(l.code));
  }
  if (block.tlvs.size() > nt) block.tlvs.resize(nt);
}

/// Visits every advertised link in order without materialising a vector
/// (the per-HELLO RX path is allocation-free this way).
template <class Fn>
inline void for_each_link(const pbb::Message& m, Fn&& fn) {
  for (const auto& block : m.addr_blocks) {
    for (std::size_t i = 0; i < block.addrs.size(); ++i) {
      Link l;
      l.addr = block.addrs[i];
      if (const auto* t = block.tlv_for(i, wire::kAtlvLinkCode)) {
        l.code = static_cast<wire::LinkCode>(t->as_u8());
      }
      fn(l);
    }
  }
}

/// Refills `out` with the addresses `m` lists under a link code `keep`
/// accepts, except `self`: sorted and duplicate-free, the form
/// NeighborTable::set_two_hop takes. `out` is reused scratch.
template <class Keep>
inline void two_hop_into(std::vector<net::Addr>& out, const pbb::Message& m,
                         net::Addr self, Keep&& keep) {
  out.clear();
  for_each_link(m, [&](const Link& l) {
    if (keep(l.code) && l.addr != self) out.push_back(l.addr);
  });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

/// Link code the sender advertises for `addr` (nullopt if unlisted).
inline std::optional<wire::LinkCode> code_for(const pbb::Message& m,
                                              net::Addr addr) {
  for (const auto& block : m.addr_blocks) {
    for (std::size_t i = 0; i < block.addrs.size(); ++i) {
      if (block.addrs[i] != addr) continue;
      const auto* t = block.tlv_for(i, wire::kAtlvLinkCode);
      return t != nullptr ? static_cast<wire::LinkCode>(t->as_u8())
                          : wire::LinkCode::kAsym;
    }
  }
  return std::nullopt;
}

inline std::uint8_t willingness(const pbb::Message& m) {
  const auto* t = m.find_tlv(wire::kTlvWillingness);
  return t == nullptr ? wire::kWillDefault : t->as_u8();
}

/// Visits every piggyback TLV in place (no copies). Everything except the
/// HELLO's own control TLVs rides as piggyback payload (battery adverts,
/// position beacons, route adverts, ...).
template <class Fn>
inline void for_each_piggyback(const pbb::Message& m, Fn&& fn) {
  for (const auto& t : m.tlvs) {
    if (t.type == wire::kTlvWillingness || t.type == wire::kTlvMprAware) {
      continue;
    }
    fn(t);
  }
}

}  // namespace mk::proto::hello
