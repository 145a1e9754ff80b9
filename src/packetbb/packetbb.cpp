#include "packetbb/packetbb.hpp"

#include <algorithm>

#include "packetbb/message_pool.hpp"
#include "util/assert.hpp"
#include "util/bytebuffer.hpp"

namespace mk::pbb {

namespace {

constexpr std::uint8_t kPktFlagSeqnum = 0x01;
constexpr std::uint8_t kMsgFlagOrig = 0x01;
constexpr std::uint8_t kMsgFlagHops = 0x02;
constexpr std::uint8_t kMsgFlagSeqnum = 0x04;

void write_tlv(ByteWriter& w, std::uint8_t type,
               const std::vector<std::uint8_t>& value) {
  MK_ASSERT(value.size() <= 0xFFFF, "tlv too large");
  w.put_u8(type);
  w.put_u16(static_cast<std::uint16_t>(value.size()));
  w.put_bytes(value);
}

/// Reads a TLV into an existing slot, reusing the value vector's capacity.
void read_tlv_into(ByteReader& r, Tlv& t) {
  t.type = r.get_u8();
  std::uint16_t len = r.get_u16();
  auto view = r.get_view(len);
  t.value.assign(view.begin(), view.end());
}

/// Slot-fill: returns v[i], default-constructing it only when the vector is
/// shorter. Combined with trim() this refills a scratch vector without
/// clear(), which would destroy elements and free their nested buffers.
template <class T>
T& slot(std::vector<T>& v, std::size_t i) {
  if (i == v.size()) v.emplace_back();
  return v[i];
}

template <class T>
void trim(std::vector<T>& v, std::size_t n) {
  if (v.size() > n) v.resize(n);
}

}  // namespace

Tlv Tlv::u8(std::uint8_t type, std::uint8_t v) { return Tlv{type, {v}}; }

Tlv Tlv::u16(std::uint8_t type, std::uint16_t v) {
  return Tlv{type,
             {static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)}};
}

Tlv Tlv::u32(std::uint8_t type, std::uint32_t v) {
  return Tlv{type,
             {static_cast<std::uint8_t>(v >> 24),
              static_cast<std::uint8_t>(v >> 16),
              static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)}};
}

std::uint8_t Tlv::as_u8() const {
  MK_ENSURE(value.size() >= 1, "tlv not u8");
  return value[0];
}

std::uint16_t Tlv::as_u16() const {
  MK_ENSURE(value.size() >= 2, "tlv not u16");
  return static_cast<std::uint16_t>((value[0] << 8) | value[1]);
}

std::uint32_t Tlv::as_u32() const {
  MK_ENSURE(value.size() >= 4, "tlv not u32");
  return (static_cast<std::uint32_t>(value[0]) << 24) |
         (static_cast<std::uint32_t>(value[1]) << 16) |
         (static_cast<std::uint32_t>(value[2]) << 8) |
         static_cast<std::uint32_t>(value[3]);
}

std::uint8_t AddressTlv::as_u8() const {
  MK_ENSURE(value.size() >= 1, "addr tlv not u8");
  return value[0];
}

std::uint32_t AddressTlv::as_u32() const {
  MK_ENSURE(value.size() >= 4, "addr tlv not u32");
  return (static_cast<std::uint32_t>(value[0]) << 24) |
         (static_cast<std::uint32_t>(value[1]) << 16) |
         (static_cast<std::uint32_t>(value[2]) << 8) |
         static_cast<std::uint32_t>(value[3]);
}

void AddressBlock::add_with_u8(Addr a, std::uint8_t tlv_type, std::uint8_t v) {
  MK_ASSERT(addrs.size() < 255, "address block full");
  auto idx = static_cast<std::uint8_t>(addrs.size());
  addrs.push_back(a);
  tlvs.push_back(AddressTlv{tlv_type, idx, idx, {v}});
}

void AddressBlock::add_with_u32(Addr a, std::uint8_t tlv_type, std::uint32_t v) {
  MK_ASSERT(addrs.size() < 255, "address block full");
  auto idx = static_cast<std::uint8_t>(addrs.size());
  addrs.push_back(a);
  tlvs.push_back(AddressTlv{tlv_type, idx, idx,
                            {static_cast<std::uint8_t>(v >> 24),
                             static_cast<std::uint8_t>(v >> 16),
                             static_cast<std::uint8_t>(v >> 8),
                             static_cast<std::uint8_t>(v)}});
}

const AddressTlv* AddressBlock::tlv_for(std::size_t i, std::uint8_t type) const {
  for (const auto& t : tlvs) {
    if (t.type == type && t.covers(i)) return &t;
  }
  return nullptr;
}

const Tlv* Message::find_tlv(std::uint8_t type) const {
  for (const auto& t : tlvs) {
    if (t.type == type) return &t;
  }
  return nullptr;
}

void Message::set_tlv(Tlv tlv) {
  for (auto& t : tlvs) {
    if (t.type == tlv.type) {
      t = std::move(tlv);
      return;
    }
  }
  tlvs.push_back(std::move(tlv));
}

namespace {

// -- one-pass wire sizing -----------------------------------------------------
// Mirrors the emit functions below exactly; serialize_into relies on the two
// staying in lockstep (debug-asserted at the end of serialize_into).

std::size_t tlv_wire_size(const Tlv& t) { return 3 + t.value.size(); }

std::size_t addr_tlv_wire_size(const AddressTlv& t) {
  return 5 + t.value.size();
}

std::size_t addr_block_wire_size(const AddressBlock& b) {
  std::size_t n = 1 + 4 * b.addrs.size() + 1;
  for (const auto& t : b.tlvs) n += addr_tlv_wire_size(t);
  return n;
}

/// Body size of a message — everything after the u16 size field.
std::size_t message_body_size(const Message& m) {
  std::size_t n = 0;
  if (m.originator) n += 4;
  if (m.has_hops) n += 2;
  if (m.seqnum) n += 2;
  n += 1;
  for (const auto& t : m.tlvs) n += tlv_wire_size(t);
  n += 1;
  for (const auto& b : m.addr_blocks) n += addr_block_wire_size(b);
  return n;
}

}  // namespace

std::size_t serialized_size(const Packet& packet) {
  std::size_t n = 2;  // version + flags
  if (packet.seqnum) n += 2;
  n += 1;
  for (const auto& t : packet.tlvs) n += tlv_wire_size(t);
  n += 1;
  for (const auto& m : packet.messages) {
    n += 4 + message_body_size(m);  // type + flags + u16 size + body
  }
  return n;
}

namespace {

/// Emits one message (type + flags + u16 size + body). Shared by
/// serialize_into and serialize_msgs_into so sizing and emit stay in
/// lockstep for both entry points.
void emit_message(ByteWriter& w, const Message& m) {
  w.put_u8(m.type);
  std::uint8_t flags = 0;
  if (m.originator) flags |= kMsgFlagOrig;
  if (m.has_hops) flags |= kMsgFlagHops;
  if (m.seqnum) flags |= kMsgFlagSeqnum;
  w.put_u8(flags);
  // The size field is known up front from the sizing pass, so the message
  // is emitted straight-line with no back-patching.
  std::size_t body = message_body_size(m);
  MK_ASSERT(body <= 0xFFFF, "message too large");
  w.put_u16(static_cast<std::uint16_t>(body));
  std::size_t msg_start = w.size();

  if (m.originator) w.put_u32(*m.originator);
  if (m.has_hops) {
    w.put_u8(m.hop_limit);
    w.put_u8(m.hop_count);
  }
  if (m.seqnum) w.put_u16(*m.seqnum);

  MK_ASSERT(m.tlvs.size() <= 255, "too many message tlvs");
  w.put_u8(static_cast<std::uint8_t>(m.tlvs.size()));
  for (const auto& t : m.tlvs) write_tlv(w, t.type, t.value);

  MK_ASSERT(m.addr_blocks.size() <= 255, "too many address blocks");
  w.put_u8(static_cast<std::uint8_t>(m.addr_blocks.size()));
  for (const auto& b : m.addr_blocks) {
    MK_ASSERT(b.addrs.size() <= 255, "address block too large");
    w.put_u8(static_cast<std::uint8_t>(b.addrs.size()));
    for (Addr a : b.addrs) w.put_u32(a);
    MK_ASSERT(b.tlvs.size() <= 255, "too many address tlvs");
    w.put_u8(static_cast<std::uint8_t>(b.tlvs.size()));
    for (const auto& t : b.tlvs) {
      MK_ASSERT(t.value.size() <= 0xFFFF, "addr tlv too large");
      w.put_u8(t.type);
      w.put_u8(t.index_start);
      w.put_u8(t.index_stop);
      w.put_u16(static_cast<std::uint16_t>(t.value.size()));
      w.put_bytes(t.value);
    }
  }
  MK_ASSERT(w.size() - msg_start == body, "sizing pass out of sync");
}

}  // namespace

void serialize_into(const Packet& packet, std::vector<std::uint8_t>& out) {
  ByteWriter w(std::move(out));
  w.reserve(serialized_size(packet));

  w.put_u8(packet.version);
  w.put_u8(packet.seqnum ? kPktFlagSeqnum : 0);
  if (packet.seqnum) w.put_u16(*packet.seqnum);

  MK_ASSERT(packet.tlvs.size() <= 255, "too many packet tlvs");
  w.put_u8(static_cast<std::uint8_t>(packet.tlvs.size()));
  for (const auto& t : packet.tlvs) write_tlv(w, t.type, t.value);

  MK_ASSERT(packet.messages.size() <= 255, "too many messages");
  w.put_u8(static_cast<std::uint8_t>(packet.messages.size()));

  for (const auto& m : packet.messages) emit_message(w, m);
  out = w.take();
  MK_ASSERT(out.size() == serialized_size(packet), "sizing pass out of sync");
}

void serialize_msgs_into(std::span<const Message* const> msgs,
                         std::vector<std::uint8_t>& out) {
  serialize_msgs_into(msgs, std::span<const Tlv>{}, out);
}

void serialize_msgs_into(std::span<const Message* const> msgs,
                         std::span<const Tlv> pkt_tlvs,
                         std::vector<std::uint8_t>& out) {
  ByteWriter w(std::move(out));
  std::size_t total = 4;  // version + flags + ntlvs + nmsgs
  for (const Tlv& t : pkt_tlvs) total += tlv_wire_size(t);
  for (const Message* m : msgs) total += 4 + message_body_size(*m);
  w.reserve(total);

  w.put_u8(0);  // version (Packet default)
  w.put_u8(0);  // no packet seqnum
  MK_ASSERT(pkt_tlvs.size() <= 255, "too many packet tlvs");
  w.put_u8(static_cast<std::uint8_t>(pkt_tlvs.size()));
  for (const Tlv& t : pkt_tlvs) write_tlv(w, t.type, t.value);
  MK_ASSERT(msgs.size() <= 255, "too many messages");
  w.put_u8(static_cast<std::uint8_t>(msgs.size()));
  for (const Message* m : msgs) emit_message(w, *m);
  out = w.take();
  MK_ASSERT(out.size() == total, "sizing pass out of sync");
}

std::vector<std::uint8_t> serialize(const Packet& packet) {
  std::vector<std::uint8_t> out;
  serialize_into(packet, out);
  return out;
}

Result<Packet> parse(std::span<const std::uint8_t> data) {
  Packet p;
  Result<bool> r = parse_into(data, p);
  if (!r) return Result<Packet>::fail(r.error());
  return Result<Packet>::ok(std::move(p));
}

namespace {

/// Reads the packet header and packet-level TLVs (slot-filled into `tlvs`);
/// returns the message count that follows.
std::uint8_t read_packet_head(ByteReader& r, std::uint8_t& version,
                              std::optional<std::uint16_t>& seqnum,
                              std::vector<Tlv>& tlvs) {
  version = r.get_u8();
  std::uint8_t pflags = r.get_u8();
  seqnum.reset();
  if (pflags & kPktFlagSeqnum) seqnum = r.get_u16();

  std::uint8_t ntlvs = r.get_u8();
  for (std::uint8_t i = 0; i < ntlvs; ++i) read_tlv_into(r, slot(tlvs, i));
  trim(tlvs, ntlvs);
  return r.get_u8();
}

/// Reads one message into `m`, overwriting every field: its nested vectors
/// are slot-filled and trimmed, so a warm `m` of the same shape takes no
/// allocation. Returns the error, or nullptr when the message is well formed.
const char* read_message_into(ByteReader& r, Message& m) {
  m.type = r.get_u8();
  std::uint8_t flags = r.get_u8();
  std::uint16_t size = r.get_u16();
  ByteReader mr = r.slice(size);

  m.originator.reset();
  if (flags & kMsgFlagOrig) m.originator = mr.get_u32();
  m.has_hops = (flags & kMsgFlagHops) != 0;
  m.hop_limit = 0;
  m.hop_count = 0;
  if (m.has_hops) {
    m.hop_limit = mr.get_u8();
    m.hop_count = mr.get_u8();
  }
  m.seqnum.reset();
  if (flags & kMsgFlagSeqnum) m.seqnum = mr.get_u16();

  std::uint8_t mtlvs = mr.get_u8();
  for (std::uint8_t j = 0; j < mtlvs; ++j) read_tlv_into(mr, slot(m.tlvs, j));
  trim(m.tlvs, mtlvs);

  std::uint8_t nblocks = mr.get_u8();
  for (std::uint8_t j = 0; j < nblocks; ++j) {
    AddressBlock& b = slot(m.addr_blocks, j);
    std::uint8_t naddrs = mr.get_u8();
    b.addrs.clear();  // trivial elements: capacity survives
    for (std::uint8_t k = 0; k < naddrs; ++k) b.addrs.push_back(mr.get_u32());
    std::uint8_t natlvs = mr.get_u8();
    for (std::uint8_t k = 0; k < natlvs; ++k) {
      AddressTlv& t = slot(b.tlvs, k);
      t.type = mr.get_u8();
      t.index_start = mr.get_u8();
      t.index_stop = mr.get_u8();
      std::uint16_t len = mr.get_u16();
      auto view = mr.get_view(len);
      t.value.assign(view.begin(), view.end());
      if (!b.addrs.empty() &&
          (t.index_start >= b.addrs.size() ||
           t.index_stop >= b.addrs.size() || t.index_start > t.index_stop)) {
        return "address tlv index out of range";
      }
    }
    trim(b.tlvs, natlvs);
  }
  trim(m.addr_blocks, nblocks);
  return mr.at_end() ? nullptr : "trailing bytes inside message";
}

}  // namespace

Result<bool> parse_into(std::span<const std::uint8_t> data, Packet& out) {
  try {
    ByteReader r(data);
    std::uint8_t nmsgs = read_packet_head(r, out.version, out.seqnum, out.tlvs);
    for (std::uint8_t i = 0; i < nmsgs; ++i) {
      if (const char* err = read_message_into(r, slot(out.messages, i))) {
        return Result<bool>::fail(err);
      }
    }
    trim(out.messages, nmsgs);
    if (!r.at_end()) {
      return Result<bool>::fail("trailing bytes after packet");
    }
    return Result<bool>::ok(true);
  } catch (const BufferUnderflow&) {
    return Result<bool>::fail("truncated packet");
  }
}

Result<bool> parse_shared(std::span<const std::uint8_t> data,
                          SharedPacket& out) {
  out.messages.clear();  // the previous decode's handles go back to their owners
  auto fail = [&out](const char* err) {
    out.messages.clear();
    return Result<bool>::fail(err);
  };
  try {
    ByteReader r(data);
    std::uint8_t version;
    std::optional<std::uint16_t> seqnum;
    std::uint8_t nmsgs = read_packet_head(r, version, seqnum, out.tlvs);
    for (std::uint8_t i = 0; i < nmsgs; ++i) {
      std::shared_ptr<Message> m = acquire_message();
      if (const char* err = read_message_into(r, *m)) return fail(err);
      out.messages.push_back(std::move(m));
    }
    if (!r.at_end()) return fail("trailing bytes after packet");
    return Result<bool>::ok(true);
  } catch (const BufferUnderflow&) {
    return fail("truncated packet");
  }
}

std::string addr_to_string(Addr a) {
  return std::to_string((a >> 24) & 0xFF) + "." + std::to_string((a >> 16) & 0xFF) +
         "." + std::to_string((a >> 8) & 0xFF) + "." + std::to_string(a & 0xFF);
}

}  // namespace mk::pbb
