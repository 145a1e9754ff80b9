// RFC 1982 serial-number arithmetic over 16-bit counters: the protocols'
// sequence numbers, checkpoint epochs and campaign epochs all wrap, so
// "newer" is decided on the circle, not by plain integer order.
#pragma once

#include <cstdint>

namespace mk {

/// `a` is newer than `b` iff they differ and the forward distance b→a is
/// less than half the number space. Survives the 65535→0 wraparound, where
/// plain `a > b` would declare every historic number "newer" again. The
/// exact half distance is incomparable: neither side is newer.
constexpr bool serial_newer(std::uint16_t a, std::uint16_t b) {
  return a != b && static_cast<std::uint16_t>(a - b) < 0x8000;
}

}  // namespace mk
