#pragma once
// Counting replacements for the global operator new/delete, shared by the
// tests that pin allocation discipline. The header defines the replaceable
// allocation functions, so include it from exactly one translation unit of
// a test binary. The counter only ever increments, so any delta across a
// steady-state round proves an allocation happened on the path under test.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace counting_new {

inline std::atomic<std::size_t> allocations{0};

inline void* counted_alloc(std::size_t bytes, std::size_t alignment) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  void* ptr = nullptr;
  const std::size_t align = alignment < sizeof(void*) ? sizeof(void*) : alignment;
  if (posix_memalign(&ptr, align, bytes == 0 ? 1 : bytes) != 0) {
    throw std::bad_alloc();
  }
  return ptr;
}

}  // namespace counting_new

void* operator new(std::size_t bytes) {
  return counting_new::counted_alloc(bytes, alignof(std::max_align_t));
}
void* operator new[](std::size_t bytes) {
  return counting_new::counted_alloc(bytes, alignof(std::max_align_t));
}
void* operator new(std::size_t bytes, std::align_val_t align) {
  return counting_new::counted_alloc(bytes, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t bytes, std::align_val_t align) {
  return counting_new::counted_alloc(bytes, static_cast<std::size_t>(align));
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); }
