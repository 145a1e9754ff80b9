// Heap accounting for the Table 2 (memory footprint) reproduction.
//
// mk_util replaces the global operator new/delete with counting versions
// (backed by malloc / malloc_usable_size). A Scope snapshots the live-byte
// counter so a bench can attribute heap growth to a particular deployment:
//
//   memtrack::Scope scope;
//   deploy_olsr(node);
//   std::uint64_t footprint = scope.live_bytes_delta();
#pragma once

#include <cstdint>

namespace mk::memtrack {

struct Stats {
  std::uint64_t live_bytes = 0;
  std::uint64_t live_allocs = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t total_allocs = 0;
};

/// Globally consistent snapshot of the allocation counters.
Stats snapshot();

/// True when the counting interposer is the allocator actually being linked
/// (compile-time sanitizer check plus a one-time runtime probe allocation
/// that must move the counter). Under ASan/TSan/MSan the sanitizer runtime
/// owns allocation, so this reports false and byte-budget enforcement
/// (tests, the supervision dispatch guard) is skipped.
bool interposer_live();

class Scope {
 public:
  Scope() : start_(snapshot()) {}

  /// Net heap growth (bytes still allocated) since construction.
  /// Clamped at zero: frees of pre-existing memory don't go negative.
  std::uint64_t live_bytes_delta() const;

 private:
  Stats start_;
};

}  // namespace mk::memtrack
