#include "util/bytebuffer.hpp"

#include "util/assert.hpp"

namespace mk {

void ByteWriter::put_u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::put_u32(std::uint32_t v) {
  put_u16(static_cast<std::uint16_t>(v >> 16));
  put_u16(static_cast<std::uint16_t>(v));
}

void ByteWriter::put_u64(std::uint64_t v) {
  put_u32(static_cast<std::uint32_t>(v >> 32));
  put_u32(static_cast<std::uint32_t>(v));
}

void ByteWriter::put_bytes(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::put_string(const std::string& s) {
  MK_ASSERT(s.size() <= 0xFFFF);
  put_u16(static_cast<std::uint16_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

std::size_t ByteWriter::reserve_u16() {
  std::size_t pos = buf_.size();
  buf_.push_back(0);
  buf_.push_back(0);
  return pos;
}

void ByteWriter::patch_u16(std::size_t pos, std::uint16_t v) {
  MK_ASSERT(pos + 2 <= buf_.size());
  buf_[pos] = static_cast<std::uint8_t>(v >> 8);
  buf_[pos + 1] = static_cast<std::uint8_t>(v);
}

std::uint8_t ByteReader::get_u8() {
  require(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::get_u16() {
  require(2);
  std::uint16_t v = static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::get_u32() {
  std::uint32_t hi = get_u16();
  std::uint32_t lo = get_u16();
  return (hi << 16) | lo;
}

std::uint64_t ByteReader::get_u64() {
  std::uint64_t hi = get_u32();
  std::uint64_t lo = get_u32();
  return (hi << 32) | lo;
}

std::string ByteReader::get_string() {
  std::size_t n = get_u16();
  require(n);
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return out;
}

ByteReader ByteReader::slice(std::size_t n) {
  require(n);
  ByteReader sub(data_.subspan(pos_, n));
  pos_ += n;
  return sub;
}

}  // namespace mk
