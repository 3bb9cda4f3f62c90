// A callable with small-buffer-optimized storage, built where it lives.
//
// `InlineCallable<Capacity>` stores any callable of at most `Capacity`
// bytes directly in the object (no heap allocation on construction or
// invocation); larger callables transparently fall back to one heap
// allocation.  Unlike `std::function` it is neither copyable nor movable,
// so captured state (a `Message`, a payload handle) is never copied or
// relocated: `Emplace` builds a callable in a wrapper that already exists,
// which is how the simulator's event slab stores an event in its slot and
// invokes it there.  `kFitsInline<F>` lets hot paths static_assert that
// their capture actually stays inline.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ttmqo {

template <std::size_t Capacity>
class InlineCallable {
 public:
  /// Bytes of inline storage.
  static constexpr std::size_t kCapacity = Capacity;

  /// True when a callable of type `F` lives in the inline buffer, making
  /// its entire lifecycle (construct, invoke, destroy) heap-free.
  template <typename F>
  static constexpr bool kFitsInline =
      sizeof(F) <= Capacity && alignof(F) <= alignof(std::max_align_t);

  InlineCallable() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallable> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineCallable(F&& fn) {  // NOLINT(google-explicit-constructor)
    Emplace(std::forward<F>(fn));
  }

  /// Builds the callable `fn` decays to directly in this wrapper's storage,
  /// destroying any callable held before.  If the construction throws, the
  /// wrapper is left empty.
  template <typename F>
  void Emplace(F&& fn) {
    using Decayed = std::decay_t<F>;
    static_assert(!std::is_same_v<Decayed, InlineCallable>,
                  "pass the callable itself: a wrapper can be neither copied "
                  "nor moved");
    static_assert(std::is_invocable_r_v<void, Decayed&>,
                  "the callable must be invocable with no arguments");
    Reset();
    if constexpr (kFitsInline<Decayed>) {
      ::new (static_cast<void*>(storage_)) Decayed(std::forward<F>(fn));
      ops_ = &kInlineOps<Decayed>;
    } else {
      // Intentional heap fallback for captures that outgrow the inline
      // buffer; hot-path captures static_assert kFitsInline instead.
      ::new (static_cast<void*>(storage_))
          Decayed*(new Decayed(std::forward<F>(fn)));  // ttmqo-lint: allow(raw-alloc): documented heap fallback
      ops_ = &kHeapOps<Decayed>;
    }
  }

  // Neither copyable nor movable (no move is declared either).
  InlineCallable(const InlineCallable&) = delete;
  InlineCallable& operator=(const InlineCallable&) = delete;

  ~InlineCallable() { Reset(); }

  /// True when a callable is held.
  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// True when the held callable is stored inline (diagnostics).
  bool is_inline() const noexcept {
    return ops_ != nullptr && ops_->stored_inline;
  }

  /// Invokes the held callable; undefined when empty.
  void operator()() { ops_->invoke(storage_); }

  /// Destroys the held callable, if any, leaving the wrapper empty.
  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    void (*destroy)(void* storage) noexcept;
    bool stored_inline;
  };

  template <typename F>
  static F* Stored(void* storage) noexcept {
    return std::launder(reinterpret_cast<F*>(storage));
  }

  template <typename F>
  static constexpr Ops kInlineOps = {
      /*invoke=*/[](void* s) { (*Stored<F>(s))(); },
      /*destroy=*/[](void* s) noexcept { Stored<F>(s)->~F(); },
      /*stored_inline=*/true,
  };

  template <typename F>
  static constexpr Ops kHeapOps = {
      /*invoke=*/[](void* s) { (**Stored<F*>(s))(); },
      /*destroy=*/[](void* s) noexcept { delete *Stored<F*>(s); },
      /*stored_inline=*/false,
  };

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[Capacity];
};

}  // namespace ttmqo
