// Cache-line aligned flat buffers for the compiled execution engine.
//
// Each plan template's gather table (core/plan_cache.hpp) and PolyMem's
// per-access lowering arrays — one table pointer and one delta per access
// of the last batch — are flat arrays, so the kernels' hot loop is pure
// arithmetic over contiguous memory. This minimal vector keeps those
// arrays 64-byte aligned (one table never straddles a line needlessly)
// and guarantees that resizing *within capacity* never allocates, which
// is what the batch heap-count test (tests/core/batch_alloc_test.cpp)
// enforces for the steady state.
//
// Only trivially-copyable element types are supported: grow copies bytes
// and destructors are never run per element.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>

namespace polymem::core::simd {

inline constexpr std::size_t kCacheLine = 64;

template <typename T>
class AlignedVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "AlignedVec holds flat SIMD tables: trivially copyable only");

 public:
  AlignedVec() = default;
  ~AlignedVec() { deallocate(); }

  // Owners pin their tables (kernels hold pointers into them).
  AlignedVec(const AlignedVec&) = delete;
  AlignedVec& operator=(const AlignedVec&) = delete;

  T* data() { return ptr_; }
  const T* data() const { return ptr_; }
  std::size_t size() const { return size_; }

  T& operator[](std::size_t k) { return ptr_[k]; }
  const T& operator[](std::size_t k) const { return ptr_[k]; }

  /// Sets the size; new elements are uninitialised (callers overwrite).
  /// Allocation-free whenever `n` is within the capacity, which grows
  /// geometrically and never shrinks.
  void resize(std::size_t n) {
    if (n > cap_) {
      std::size_t cap = cap_ ? cap_ : 8;
      while (cap < n) cap *= 2;
      T* p = static_cast<T*>(
          ::operator new(cap * sizeof(T), std::align_val_t{kCacheLine}));
      if (size_ > 0) std::memcpy(p, ptr_, size_ * sizeof(T));
      deallocate();
      ptr_ = p;
      cap_ = cap;
    }
    size_ = n;
  }

 private:
  void deallocate() {
    if (ptr_ != nullptr)
      ::operator delete(ptr_, std::align_val_t{kCacheLine});
  }

  T* ptr_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

}  // namespace polymem::core::simd
