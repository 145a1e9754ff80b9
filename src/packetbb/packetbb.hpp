// Generalized MANET packet/message format in the style of RFC 5444
// (draft-ietf-manet-packetbb), which the paper adopts as the basis of
// MANETKit's event structure (§4.2).
//
// A Packet carries packet-level TLVs plus a sequence of Messages. A Message
// has an optional originator / hop fields / sequence number, message-level
// TLVs, and Address Blocks; TLVs can be attached to address ranges within a
// block. All protocol control traffic (OLSR HELLO/TC, DYMO RM/RERR, AODV
// RREQ/RREP/RERR) is framed in this format, so a single parser and a single
// generator component are shared by every protocol — a major source of the
// paper's code-reuse numbers (Table 3).
//
// Wire format (big-endian, simplified relative to RFC 5444 — no address
// prefix compression; uniform across all protocols in this repo):
//   packet  := u8 version | u8 flags(bit0:seqnum) | [u16 seqnum]
//              | u8 ntlvs | tlv* | u8 nmsgs | message*
//   tlv     := u8 type | u16 length | byte*
//   message := u8 type | u8 flags(bit0:orig,bit1:hops,bit2:seqnum)
//              | u16 size (whole message, incl. header)
//              | [u32 originator] | [u8 hop_limit | u8 hop_count]
//              | [u16 seqnum] | u8 ntlvs | tlv* | u8 nblocks | addrblock*
//   addrblock := u8 naddrs | u32*naddrs | u8 ntlvs | addrtlv*
//   addrtlv := u8 type | u8 index_start | u8 index_stop | u16 length | byte*
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/result.hpp"

namespace mk::pbb {

/// Node address. IPv4-like 32-bit identifier (the simulator hands them out
/// as 10.0.0.x).
using Addr = std::uint32_t;

struct Tlv {
  std::uint8_t type = 0;
  std::vector<std::uint8_t> value;

  static Tlv u8(std::uint8_t type, std::uint8_t v);
  static Tlv u16(std::uint8_t type, std::uint16_t v);
  static Tlv u32(std::uint8_t type, std::uint32_t v);
  static Tlv empty(std::uint8_t type) { return Tlv{type, {}}; }

  std::uint8_t as_u8() const;
  std::uint16_t as_u16() const;
  std::uint32_t as_u32() const;

  bool operator==(const Tlv&) const = default;
};

/// TLV attached to the address index range [index_start, index_stop].
struct AddressTlv {
  std::uint8_t type = 0;
  std::uint8_t index_start = 0;
  std::uint8_t index_stop = 0;
  std::vector<std::uint8_t> value;

  std::uint8_t as_u8() const;
  std::uint32_t as_u32() const;

  bool covers(std::size_t index) const {
    return index >= index_start && index <= index_stop;
  }

  bool operator==(const AddressTlv&) const = default;
};

struct AddressBlock {
  std::vector<Addr> addrs;
  std::vector<AddressTlv> tlvs;

  /// Appends an address with a single u8-valued TLV attached to it.
  void add_with_u8(Addr a, std::uint8_t tlv_type, std::uint8_t v);
  void add_with_u32(Addr a, std::uint8_t tlv_type, std::uint32_t v);

  /// First TLV of `type` covering address index `i` (nullptr if none).
  const AddressTlv* tlv_for(std::size_t i, std::uint8_t type) const;

  bool operator==(const AddressBlock&) const = default;
};

struct Message {
  std::uint8_t type = 0;
  std::optional<Addr> originator;
  bool has_hops = false;
  std::uint8_t hop_limit = 0;
  std::uint8_t hop_count = 0;
  std::optional<std::uint16_t> seqnum;
  std::vector<Tlv> tlvs;
  std::vector<AddressBlock> addr_blocks;

  const Tlv* find_tlv(std::uint8_t type) const;
  void set_tlv(Tlv tlv);  // replaces existing TLV of same type

  bool operator==(const Message&) const = default;
};

struct Packet {
  std::uint8_t version = 0;
  std::optional<std::uint16_t> seqnum;
  std::vector<Tlv> tlvs;
  std::vector<Message> messages;

  bool operator==(const Packet&) const = default;
};

/// Exact wire size of `packet` under the format above, computed in a single
/// sizing pass (no serialization).
std::size_t serialized_size(const Packet& packet);

/// Serializes to the wire format above. Never fails for well-formed inputs
/// (asserts on count overflows, which indicate a protocol bug). The output
/// buffer is sized with serialized_size() up front, so serialization performs
/// exactly one allocation (zero when `out` already has the capacity — the
/// out-param overload recycles the buffer across calls).
std::vector<std::uint8_t> serialize(const Packet& packet);
void serialize_into(const Packet& packet, std::vector<std::uint8_t>& out);

/// Serializes messages referenced by pointer under the default packet
/// wrapper (version 0, no packet seqnum, no packet TLVs) — wire-identical to
/// serialize_into on a Packet holding copies of the same messages, without
/// deep-copying them into a Packet first. Buffer-recycling like
/// serialize_into.
void serialize_msgs_into(std::span<const Message* const> msgs,
                         std::vector<std::uint8_t>& out);

/// Like the two-argument overload but emits `pkt_tlvs` as packet-level TLVs
/// (replication checkpoints piggyback on outbound control packets this way).
void serialize_msgs_into(std::span<const Message* const> msgs,
                         std::span<const Tlv> pkt_tlvs,
                         std::vector<std::uint8_t>& out);

/// Parses an untrusted byte string; returns an error (never throws, never
/// crashes) on malformed input.
Result<Packet> parse(std::span<const std::uint8_t> data);

/// Parse into a reusable scratch packet: nested vectors are slot-filled and
/// trimmed instead of rebuilt, so parsing a steady stream of same-shaped
/// packets into one scratch performs zero allocations. On failure `out` is
/// left in an unspecified (but destructible/reusable) state.
Result<bool> parse_into(std::span<const std::uint8_t> data, Packet& out);

/// A received packet whose messages are shared immutable handles: what one
/// decode of a broadcast hands to every receiver of it (see DecodeMemo in
/// message_pool.hpp).
struct SharedPacket {
  std::vector<Tlv> tlvs;
  std::vector<std::shared_ptr<const Message>> messages;
};

/// Like parse_into, but each message is parsed straight into its own pooled
/// slot (acquire_message), so the result can be shared without a copy.
/// `out.tlvs` is slot-filled; `out.messages` drops its old handles first and
/// is left empty on failure.
Result<bool> parse_shared(std::span<const std::uint8_t> data, SharedPacket& out);

/// Address pretty-printer ("10.0.0.7" style).
std::string addr_to_string(Addr a);

}  // namespace mk::pbb
