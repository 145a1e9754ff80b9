// Big-endian byte buffer reader/writer used by the PacketBB codec and the
// baselines' packet formats. The reader throws BufferUnderflow on truncated
// input; parsers convert that into a parse error for untrusted packets.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace mk {

class BufferUnderflow : public std::runtime_error {
 public:
  BufferUnderflow() : std::runtime_error("buffer underflow") {}
};

class ByteWriter {
 public:
  ByteWriter() = default;
  /// Recycles `buf`'s capacity: the writer starts empty but keeps the
  /// allocation, so serialize-into-scratch-buffer loops allocate at most once.
  explicit ByteWriter(std::vector<std::uint8_t> buf) : buf_(std::move(buf)) {
    buf_.clear();
  }

  void reserve(std::size_t n) { buf_.reserve(n); }

  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_bytes(std::span<const std::uint8_t> bytes);
  void put_string(const std::string& s);  // length-prefixed (u16)

  /// Reserves a u16 slot to be patched later (e.g. message size fields).
  std::size_t reserve_u16();
  void patch_u16(std::size_t pos, std::uint16_t v);

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t get_u8();
  std::uint16_t get_u16();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::string get_string();  // length-prefixed (u16)

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool at_end() const { return pos_ == data_.size(); }

  /// Returns a sub-reader over the next n bytes and advances past them.
  ByteReader slice(std::size_t n);

  /// Zero-copy view of the next n bytes of the underlying buffer,
  /// valid only while the source data outlives the reader's caller.
  std::span<const std::uint8_t> get_view(std::size_t n) {
    require(n);
    auto v = data_.subspan(pos_, n);
    pos_ += n;
    return v;
  }

 private:
  void require(std::size_t n) const {
    if (pos_ + n > data_.size()) throw BufferUnderflow{};
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace mk
