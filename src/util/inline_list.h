// Inline lists: vectors whose first N elements live inside the object.
//
// A result message addresses one or two radio neighbors, and a row serves
// a handful of queries (DESIGN.md note 26).  A list that keeps N elements
// in place and moves to the heap only past N lets that common traffic
// build, copy and forward its lists without touching the allocator; a
// wider multicast still works, it just spills.  The interface is the
// subset of `std::vector` the engines use.  Comparison is lexicographic,
// exactly as for `std::vector`.
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <new>
#include <utility>

namespace ttmqo {

template <typename T, std::size_t N>
class InlineList {
  static_assert(N > 0, "an inline list keeps at least one element in place");

 public:
  using value_type = T;
  using size_type = std::size_t;
  using iterator = T*;
  using const_iterator = const T*;

  InlineList() noexcept {}
  InlineList(std::initializer_list<T> values) {
    assign(values.begin(), values.end());
  }
  template <std::forward_iterator It>
  InlineList(It first, It last) {
    assign(first, last);
  }
  InlineList(const InlineList& other) { assign(other.begin(), other.end()); }
  InlineList(InlineList&& other) noexcept { TakeFrom(other); }
  InlineList& operator=(const InlineList& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  InlineList& operator=(InlineList&& other) noexcept {
    if (this != &other) {
      Release();
      TakeFrom(other);
    }
    return *this;
  }
  InlineList& operator=(std::initializer_list<T> values) {
    assign(values.begin(), values.end());
    return *this;
  }
  ~InlineList() { Release(); }

  size_type size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T* data() { return spilled() ? heap_ : InlineData(); }
  const T* data() const { return spilled() ? heap_ : InlineData(); }
  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  T& operator[](size_type i) { return data()[i]; }
  const T& operator[](size_type i) const { return data()[i]; }
  T& front() { return data()[0]; }
  const T& front() const { return data()[0]; }

  /// Destroys the elements; a list that spilled keeps its heap block.
  void clear() {
    std::destroy_n(data(), size_);
    size_ = 0;
  }

  void reserve(size_type n) {
    if (n > capacity_) Grow(n);
  }

  /// Replaces the contents with [first, last), which must not point into
  /// this list.
  template <std::forward_iterator It>
  void assign(It first, It last) {
    clear();
    const auto n = static_cast<size_type>(std::distance(first, last));
    reserve(n);
    std::uninitialized_copy(first, last, data());
    size_ = static_cast<std::uint32_t>(n);
  }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) {
      // Built before the move: an argument may refer into this list.
      T value(std::forward<Args>(args)...);
      Grow(2 * static_cast<size_type>(capacity_));
      return *std::construct_at(data() + size_++, std::move(value));
    }
    return *std::construct_at(data() + size_++, std::forward<Args>(args)...);
  }

  iterator erase(const_iterator first, const_iterator last) {
    T* const from = begin() + (first - begin());
    T* const to = begin() + (last - begin());
    T* const new_end = std::move(to, end(), from);
    std::destroy(new_end, end());
    size_ -= static_cast<std::uint32_t>(to - from);
    return from;
  }

  friend bool operator==(const InlineList& a, const InlineList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend auto operator<=>(const InlineList& a, const InlineList& b) {
    return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                  b.begin(), b.end());
  }

 private:
  bool spilled() const { return capacity_ > N; }
  T* InlineData() { return std::launder(reinterpret_cast<T*>(inline_)); }
  const T* InlineData() const {
    return std::launder(reinterpret_cast<const T*>(inline_));
  }

  // Moves the elements into a heap block of `n` elements.
  void Grow(size_type n) {
    std::allocator<T> alloc;
    T* const block = alloc.allocate(n);
    std::uninitialized_move(begin(), end(), block);
    std::destroy(begin(), end());
    if (spilled()) alloc.deallocate(heap_, capacity_);
    heap_ = block;
    capacity_ = static_cast<std::uint32_t>(n);
  }

  // Destroys the elements and returns any heap block: the list is empty
  // and inline again.
  void Release() {
    clear();
    if (spilled()) {
      std::allocator<T>().deallocate(heap_, capacity_);
      capacity_ = N;
    }
  }

  // Takes `other`'s elements into this empty, inline list; `other` is
  // left empty and inline.
  void TakeFrom(InlineList& other) noexcept {
    if (other.spilled()) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.capacity_ = N;
      other.size_ = 0;
      return;
    }
    std::uninitialized_move(other.begin(), other.end(), InlineData());
    size_ = other.size_;
    other.clear();
  }

  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = N;
  // `heap_` is meaningful only while `capacity_ > N`.  Initializing it
  // keeps a compiler that cannot follow `capacity_` from warning that a
  // moved or destroyed inline list reads it uninitialized.
  union {
    T* heap_ = nullptr;
    alignas(T) unsigned char inline_[N * sizeof(T)];
  };
};

}  // namespace ttmqo
