// Cache-line aligned flat buffers for the compiled execution engine.
//
// The ExecPlan (core/exec_plan.hpp) stores everything the gather/scatter
// kernels touch — bank indices, address deltas, pointer tables — as flat
// arrays so the hot loop is pure arithmetic over contiguous memory. This
// minimal vector keeps those arrays 64-byte aligned (one table never
// straddles a line needlessly, vector loads can use aligned forms) and
// guarantees that resizing *within capacity* never allocates, which is
// what the batch heap-count test (tests/core/batch_alloc_test.cpp)
// enforces for the steady state.
//
// Only trivially-copyable element types are supported: grow copies bytes
// and destructors are never run per element.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace polymem::core::simd {

inline constexpr std::size_t kCacheLine = 64;

template <typename T>
class AlignedVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "AlignedVec holds flat SIMD tables: trivially copyable only");

 public:
  AlignedVec() = default;
  ~AlignedVec() { deallocate(); }

  AlignedVec(const AlignedVec&) = delete;
  AlignedVec& operator=(const AlignedVec&) = delete;

  AlignedVec(AlignedVec&& other) noexcept { swap(other); }
  AlignedVec& operator=(AlignedVec&& other) noexcept {
    if (this != &other) {
      deallocate();
      ptr_ = nullptr;
      size_ = 0;
      cap_ = 0;
      swap(other);
    }
    return *this;
  }

  T* data() { return ptr_; }
  const T* data() const { return ptr_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }
  bool empty() const { return size_ == 0; }

  T& operator[](std::size_t k) { return ptr_[k]; }
  const T& operator[](std::size_t k) const { return ptr_[k]; }

  T* begin() { return ptr_; }
  T* end() { return ptr_ + size_; }
  const T* begin() const { return ptr_; }
  const T* end() const { return ptr_ + size_; }

  /// Grows capacity to at least `n` (geometric); never shrinks.
  void reserve(std::size_t n) {
    if (n <= cap_) return;
    std::size_t cap = cap_ ? cap_ : 8;
    while (cap < n) cap *= 2;
    T* p = static_cast<T*>(::operator new(
        cap * sizeof(T), std::align_val_t{kCacheLine}));
    if (size_ > 0) std::memcpy(p, ptr_, size_ * sizeof(T));
    deallocate();
    ptr_ = p;
    cap_ = cap;
  }

  /// Sets the size; new elements are uninitialised (callers overwrite).
  /// Allocation-free whenever `n <= capacity()`.
  void resize(std::size_t n) {
    reserve(n);
    size_ = n;
  }

  void clear() { size_ = 0; }

 private:
  void deallocate() {
    if (ptr_ != nullptr)
      ::operator delete(ptr_, std::align_val_t{kCacheLine});
  }

  void swap(AlignedVec& other) noexcept {
    std::swap(ptr_, other.ptr_);
    std::swap(size_, other.size_);
    std::swap(cap_, other.cap_);
  }

  T* ptr_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

}  // namespace polymem::core::simd
