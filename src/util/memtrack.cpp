#include "util/memtrack.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace mk::memtrack {

namespace {

std::atomic<std::uint64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_live_allocs{0};
std::atomic<std::uint64_t> g_total_bytes{0};
std::atomic<std::uint64_t> g_total_allocs{0};

void note_alloc(void* p) {
  if (p == nullptr) return;
  std::uint64_t sz = ::malloc_usable_size(p);
  g_live_bytes.fetch_add(sz, std::memory_order_relaxed);
  g_live_allocs.fetch_add(1, std::memory_order_relaxed);
  g_total_bytes.fetch_add(sz, std::memory_order_relaxed);
  g_total_allocs.fetch_add(1, std::memory_order_relaxed);
}

void note_free(void* p) {
  if (p == nullptr) return;
  std::uint64_t sz = ::malloc_usable_size(p);
  g_live_bytes.fetch_sub(sz, std::memory_order_relaxed);
  g_live_allocs.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace

Stats snapshot() {
  return Stats{
      g_live_bytes.load(std::memory_order_relaxed),
      g_live_allocs.load(std::memory_order_relaxed),
      g_total_bytes.load(std::memory_order_relaxed),
      g_total_allocs.load(std::memory_order_relaxed),
  };
}

namespace {

constexpr bool compiled_with_sanitizer() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

}  // namespace

bool interposer_live() {
  if (compiled_with_sanitizer()) return false;
  // Runtime probe: an allocation the optimizer cannot elide must move the
  // total_allocs counter, or some other allocator got linked ahead of us.
  static const bool live = [] {
    std::uint64_t before = snapshot().total_allocs;
    auto* volatile p = new std::uint64_t(0xA110C);
    delete p;
    return snapshot().total_allocs > before;
  }();
  return live;
}

std::uint64_t Scope::live_bytes_delta() const {
  Stats now = snapshot();
  return now.live_bytes > start_.live_bytes ? now.live_bytes - start_.live_bytes
                                            : 0;
}

}  // namespace mk::memtrack

// ---------------------------------------------------------------------------
// Global allocation operators. Defined once here; every target linking
// mk_util gets heap accounting. Alignment overloads forward to the plain
// malloc path (alignment <= 16 in practice for this codebase).
// ---------------------------------------------------------------------------

namespace {

void* counted_alloc(std::size_t size) {
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc{};
  mk::memtrack::note_alloc(p);
  return p;
}

void* counted_alloc_aligned(std::size_t size, std::size_t align) {
  void* p = std::aligned_alloc(align, ((size + align - 1) / align) * align);
  if (p == nullptr) throw std::bad_alloc{};
  mk::memtrack::note_alloc(p);
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  mk::memtrack::note_free(p);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}

void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
