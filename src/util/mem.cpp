#include "util/mem.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <new>

namespace mk::mem {

namespace {

std::atomic<MemBackend> g_backend{MemBackend::kPool};

struct Registry {
  std::mutex mu;
  std::vector<std::pair<const char*, const PoolStats*>> pools;
};

Registry& registry() {
  static Registry r;
  return r;
}

// One free list per 16-byte size class up to kBlockMaxBytes. Free blocks
// store the next pointer in their first word and poison in the rest.
//
// The block pool recycles unconditionally — the MemBackend switch lives at
// the object-pool layer (Pool<T>), whose kHeap path uses plain make_shared
// and never reaches this allocator. Keeping
// one discipline here avoids mixed-provenance frees when the backend flips.
constexpr std::size_t kNumClasses = kBlockMaxBytes / kBlockClassBytes;

struct FreeBlock {
  FreeBlock* next;
};

struct BlockPool {
  std::mutex mu;
  FreeBlock* heads[kNumClasses] = {};
  PoolStats stats;

  BlockPool() { register_pool("mem.block", &stats); }
};

BlockPool& block_pool() {
  static BlockPool p;
  return p;
}

std::size_t class_of(std::size_t n) {
  return (n + kBlockClassBytes - 1) / kBlockClassBytes - 1;
}

}  // namespace

MemBackend backend() { return g_backend.load(std::memory_order_relaxed); }

void set_backend(MemBackend b) {
  g_backend.store(b, std::memory_order_relaxed);
}

void register_pool(const char* name, const PoolStats* stats) {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  for (const auto& [n, s] : r.pools) {
    if (s == stats) return;
  }
  r.pools.emplace_back(name, stats);
}

std::vector<PoolSnapshot> pool_snapshots() {
  Registry& r = registry();
  std::vector<PoolSnapshot> out;
  {
    std::lock_guard lock(r.mu);
    out.reserve(r.pools.size());
    for (const auto& [name, stats] : r.pools) {
      out.push_back({name, stats->hits.load(std::memory_order_relaxed),
                     stats->misses.load(std::memory_order_relaxed),
                     stats->outstanding.load(std::memory_order_relaxed)});
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return std::strcmp(a.name, b.name) < 0;
  });
  return out;
}

void* block_alloc(std::size_t n) {
  if (n == 0) n = 1;
  if (n > kBlockMaxBytes) return ::operator new(n);
  BlockPool& p = block_pool();
  const std::size_t cls = class_of(n);
  FreeBlock* b;
  {
    std::lock_guard lock(p.mu);
    b = p.heads[cls];
    if (b != nullptr) p.heads[cls] = b->next;
  }
  if (b != nullptr) {
    p.stats.hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    p.stats.misses.fetch_add(1, std::memory_order_relaxed);
    b = static_cast<FreeBlock*>(::operator new((cls + 1) * kBlockClassBytes));
  }
  p.stats.outstanding.fetch_add(1, std::memory_order_relaxed);
  return b;
}

void block_free(void* ptr, std::size_t n) noexcept {
  if (ptr == nullptr) return;
  if (n == 0) n = 1;
  if (n > kBlockMaxBytes) {
    ::operator delete(ptr);
    return;
  }
  BlockPool& p = block_pool();
  const std::size_t cls = class_of(n);
  std::memset(ptr, kPoisonByte, (cls + 1) * kBlockClassBytes);
  auto* b = static_cast<FreeBlock*>(ptr);
  {
    std::lock_guard lock(p.mu);
    b->next = p.heads[cls];
    p.heads[cls] = b;
  }
  p.stats.outstanding.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace mk::mem
