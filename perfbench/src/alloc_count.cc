#include "perfbench/src/alloc_count.h"

#include <cstdlib>
#include <new>

namespace {
// Constant-initialized, so operator new may touch it from any thread at any
// time (including before main).
thread_local std::uint64_t t_allocations = 0;

void* Allocate(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* AllocateAligned(std::size_t n, std::align_val_t align) {
  ++t_allocations;
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace

namespace perfbench {
std::uint64_t ThreadAllocations() { return t_allocations; }
}  // namespace perfbench

void* operator new(std::size_t n) { return Allocate(n); }
void* operator new[](std::size_t n) { return Allocate(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return AllocateAligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return AllocateAligned(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
