// Memory-discipline primitives for the allocation-free steady state.
//
// Four pieces:
//
//  * MemBackend — a process-wide switch between pooled allocation (kPool,
//    the default) and plain heap allocation (kHeap). kHeap is the
//    conformance oracle: every pool's acquire path degenerates to
//    make_shared, so pooled-vs-heap runs must produce bit-identical ordered
//    journal digests (third instance of the wheel/heap and grid/reference
//    oracle pattern).
//
//  * Poison constants — freed pool objects are poisoned with 0xA5 and a
//    canary word is stamped, so use-after-free through a stale handle trips
//    asserts (and the poison/fuzz test) instead of silently reading recycled
//    state. Nested vectors are deliberately kept "stale warm": their buffers
//    stay allocated so the next acquire reuses the capacity. Acquirers must
//    therefore fully overwrite every field.
//
//  * Pool<T> — the one slot free list in the tree, behind plain shared_ptr
//    handles. Its users (pbb::acquire_message, net::acquire_payload) supply
//    only the reset and poison steps for their type.
//
//  * BlockPool / BlockAllocator — size-class free lists for small control
//    structures (shared_ptr control blocks chiefly), so a pooled handle's
//    *control block* is recycled too and acquire is allocation-free in
//    steady state.
//
// Pools register a PoolStats record under a stable name; pool_snapshots()
// feeds the mem.pool.* gauges (see obs) so leaked handles are observable.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace mk::mem {

/// Which allocation discipline pooled objects use. kHeap keeps the plain
/// make_shared path alive as the digest-parity oracle.
enum class MemBackend {
  kPool,  // slab/free-list recycling, poisoned frees, pooled control blocks
  kHeap,  // plain heap: the original allocation behaviour (conformance)
};

MemBackend backend();
void set_backend(MemBackend b);

/// RAII backend override for tests (restores the previous backend).
class BackendGuard {
 public:
  explicit BackendGuard(MemBackend b) : prev_(backend()) { set_backend(b); }
  ~BackendGuard() { set_backend(prev_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  MemBackend prev_;
};

/// Freed pool objects are filled with this byte...
inline constexpr std::uint8_t kPoisonByte = 0xA5;
/// ...and stamped with this canary, cleared again on acquire. A live handle
/// must never observe either.
inline constexpr std::uint64_t kPoisonCanary = 0xA5A5'A5A5'A5A5'A5A5ull;

/// Hit/miss/outstanding accounting every pool exposes. `hits` counts
/// free-list reuse, `misses` counts fresh heap growth (warm-up), and
/// `outstanding` is live acquires minus releases — it must return to zero
/// when all handles are dropped, or a handle leaked.
struct PoolStats {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::int64_t> outstanding{0};
};

/// Registers `stats` under `name` (idempotent per pointer; `name` must have
/// static storage duration). Called once from each pool's lazy init.
void register_pool(const char* name, const PoolStats* stats);

struct PoolSnapshot {
  const char* name;
  std::uint64_t hits;
  std::uint64_t misses;
  std::int64_t outstanding;
};

/// Point-in-time view of every registered pool, sorted by name.
std::vector<PoolSnapshot> pool_snapshots();

// -- size-class block pool ----------------------------------------------------

/// Allocates `n` bytes from the size-class free lists (≤ kBlockMaxBytes;
/// larger requests fall through to ::operator new). Blocks are recycled by
/// block_free and poisoned while free.
void* block_alloc(std::size_t n);
void block_free(void* p, std::size_t n) noexcept;

inline constexpr std::size_t kBlockClassBytes = 16;
inline constexpr std::size_t kBlockMaxBytes = 256;

/// std-allocator adaptor over the block pool, used for pooled shared_ptr
/// control blocks. Stateless: all instances are interchangeable.
template <class T>
struct BlockAllocator {
  using value_type = T;

  BlockAllocator() = default;
  template <class U>
  BlockAllocator(const BlockAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(block_alloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    block_free(p, n * sizeof(T));
  }

  friend bool operator==(const BlockAllocator&, const BlockAllocator&) {
    return true;
  }
};

// -- object pool -----------------------------------------------------------------

/// A recycling pool of T slots. Released slots go onto a free list, poisoned
/// and canary-stamped; acquire pops one (asserting the canary), runs the
/// user's reset step and hands it out again. Handles are plain shared_ptr:
/// the deleter returns the slot and the control block comes from
/// BlockAllocator, so a warm acquire/release cycle allocates nothing. Under
/// MemBackend::kHeap acquire is plain make_shared. Pools live for the whole
/// process (function-local statics), since handles may outlive any scope.
template <class T>
class Pool {
 public:
  using Step = void (*)(T&);

  /// `reset` runs on a recycled slot before it is handed out again (fresh
  /// slots are value-initialised); `poison` runs on release. `name` must
  /// have static storage duration.
  Pool(const char* name, Step reset, Step poison)
      : name_(name), reset_(reset), poison_(poison) {
    register_pool(name, &stats_);
  }
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  std::shared_ptr<T> acquire() {
    if (backend() == MemBackend::kHeap) return std::make_shared<T>();
    Slot* s;
    {
      std::lock_guard lock(mu_);
      s = free_head_;
      if (s != nullptr) free_head_ = s->next;
    }
    if (s != nullptr) {
      MK_ASSERT(s->canary == kPoisonCanary,
                std::string(name_) + " pool slot corrupted");
      s->canary = 0;
      s->next = nullptr;
      reset_(s->value);
      stats_.hits.fetch_add(1, std::memory_order_relaxed);
    } else {
      s = new Slot();
      stats_.misses.fetch_add(1, std::memory_order_relaxed);
    }
    stats_.outstanding.fetch_add(1, std::memory_order_relaxed);
    return std::shared_ptr<T>(&s->value, Deleter{this, s}, BlockAllocator<T>{});
  }

 private:
  struct Slot {
    T value{};
    std::uint64_t canary = 0;
    Slot* next = nullptr;
  };
  struct Deleter {
    Pool* pool;
    Slot* slot;
    void operator()(T*) const noexcept { pool->release(slot); }
  };

  void release(Slot* s) noexcept {
    poison_(s->value);
    s->canary = kPoisonCanary;
    {
      std::lock_guard lock(mu_);
      s->next = free_head_;
      free_head_ = s;
    }
    stats_.outstanding.fetch_sub(1, std::memory_order_relaxed);
  }

  const char* name_;
  Step reset_;
  Step poison_;
  std::mutex mu_;
  Slot* free_head_ = nullptr;
  PoolStats stats_;
};

}  // namespace mk::mem

namespace mk {
using mem::MemBackend;
}  // namespace mk
